"""The instance, the clique sequence and the flow network keep their fields
in int columns, and nothing on the solve path builds a per-item tuple from
them: the Vertex records, the span pairs and the arc triples are views for
callers, built on each read."""

import random

import pytest

from sessionpick import (CliqueSequence, FlowNetwork, IntervalInstance, connected_components,
                         parse_schedule, solve_mwkc, to_intervals, verify_solution)
from sessionpick.cli import main

from conftest import FIXTURES, make_instance


def _refuse(self):
    raise AssertionError("a per-item view was read on the solve path")


@pytest.fixture
def no_views(monkeypatch):
    """Every read of inst.vertices, cs.spans or net.arcs fails."""
    monkeypatch.setattr(IntervalInstance, "vertices", property(_refuse))
    monkeypatch.setattr(CliqueSequence, "spans", property(_refuse))
    monkeypatch.setattr(FlowNetwork, "arcs", property(_refuse))


def _spread(n=3000, seed=5):
    """n intervals built from Vertex records, long enough to overlap many."""
    rng = random.Random(seed)
    triples = []
    for _ in range(n):
        s = rng.randint(0, 50_000)
        triples.append((s, s + rng.randint(1, 800), rng.randint(0, 1000)))
    return make_instance(triples)


@pytest.mark.parametrize("k", [1, 3])
def test_solve_verify_and_components_read_no_view(demo10, no_views, k):
    for inst in (demo10, _spread()):
        sol = solve_mwkc(inst, k)
        assert not verify_solution(sol, inst, k).violations
        assert sorted(v for comp in connected_components(inst) for v in comp) == \
            list(range(inst.n))


def test_cli_solve_and_check_read_no_view(no_views, tmp_path, capsys):
    solution = tmp_path / "solution.json"
    demo = str(FIXTURES / "demo10.csv")
    assert main(["solve", "--input", demo, "--k", "2", "--output", str(solution)]) == 0
    assert main(["check", "--input", demo, str(solution)]) == 0
    assert "PASS: 2 sessions, total weight 34" in capsys.readouterr().err


def test_instances_hold_int_lists(demo10):
    schedule = parse_schedule((FIXTURES / "three_channels.csv").read_text(), "csv")
    for inst in (demo10, to_intervals(schedule), _spread(200)):
        for column in (inst.s, inst.f, inst.w):
            assert type(column) is list
            assert {type(x) for x in column} == {int}
            assert len(column) == inst.n
    assert IntervalInstance.__slots__ == ("s", "f", "w", "provenance")
