"""Release gate: one test per shipped guarantee, one PASS/FAIL line each."""

import random
import time
from contextlib import contextmanager

from sessionpick import (
    KcolourSolution,
    brute_force_mwkc,
    build_network,
    compute_pi,
    connected_components,
    enumerate_maximal_cliques,
    parse_schedule,
    solve_min_cost_k_flow,
    solve_mwkc,
    to_intervals,
    transform_weights,
    verify_solution,
)

from conftest import flow_cost, make_instance, max_depth


@contextmanager
def criterion(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"{label}: PASS")


def _instance(path, excluded=frozenset()):
    return to_intervals(parse_schedule(path.read_text(), "csv"), excluded)


def test_acceptance_1_small_fixture_regression(demo10_csv, capsys):
    with criterion(capsys, "ACCEPTANCE 1 (small fixture regression)"):
        inst = _instance(demo10_csv)
        cs = enumerate_maximal_cliques(inst)
        as_slots = [frozenset(inst.provenance[v] for v in c) for c in cs.cliques]
        assert as_slots == [
            frozenset({"I1", "I2"}),
            frozenset({"I2", "I4", "I5"}),
            frozenset({"I3", "I4", "I5"}),
            frozenset({"I5", "I7"}),
            frozenset({"I6", "I7", "I8", "I9"}),
            frozenset({"I7", "I8", "I9", "I10"}),
        ]
        assert compute_pi(build_network(cs, inst, 2)) == [20, 15, 13, 7, 7, 3, 0]

        solve_mwkc(inst, 2)  # warm-up so the timed runs see hot code paths
        t0 = time.perf_counter()
        sol2 = solve_mwkc(inst, 2)
        sol1 = solve_mwkc(inst, 1)
        elapsed = time.perf_counter() - t0
        assert sol2.total_weight == 34
        assert not verify_solution(sol2, inst, 2).violations
        assert len(sol2.classes) == 2
        assert sol1.total_weight == 20
        assert elapsed < 0.010, f"two solves took {elapsed * 1000:.2f} ms"


def test_acceptance_2_transformed_weights(demo10_csv, capsys):
    with criterion(capsys, "ACCEPTANCE 2 (transformed weights)"):
        inst = _instance(demo10_csv)
        cs = enumerate_maximal_cliques(inst)
        net = build_network(cs, inst, 2)
        pi = compute_pi(net)
        weight_u = transform_weights(net, pi)
        # arc ids: c-arcs 0..r-1, then vertex v's i-arc at r + v
        assert weight_u[:net.r] == [5, 2, 6, 0, 4, 3]
        by_slot = {inst.provenance[vid]: wu for vid, wu in enumerate(weight_u[net.r:])}
        # I4's arc is pinned by the slack formula: pi[1] - pi[4] - w = 15 - 7 - 2 = 6
        # (a hand-worked table of this example floats around with a 5 there,
        # which fails that formula)
        assert by_slot == {"I1": 0, "I2": 4, "I3": 0, "I4": 6, "I5": 0,
                           "I6": 0, "I7": 6, "I8": 5, "I9": 2, "I10": 0}
        assert all(0 <= wu <= 20 for wu in weight_u)


def _expand(prefix, lo, hi):
    return [f"{prefix}{i}" for i in range(lo, hi + 1)]


def _as_solution(inst, session_a, session_b):
    vid_by_slot = {slot_id: vid for vid, slot_id in inst.provenance.items()}
    classes = tuple(tuple(vid_by_slot[s] for s in session)
                    for session in (session_a, session_b))
    flat = [v for cls in classes for v in cls]
    total = sum(inst.w[v] for v in flat)
    return KcolourSolution(k=2, Q=frozenset(flat), classes=classes, total_weight=total)


def test_acceptance_3_three_channel_regression(three_channels_csv, capsys):
    with criterion(capsys, "ACCEPTANCE 3 (three-channel regression)"):
        inst = _instance(three_channels_csv)
        t0 = time.perf_counter()
        cs = enumerate_maximal_cliques(inst)
        assert cs.r == 28 and len(connected_components(inst)) == 8

        first = _as_solution(
            inst,
            ["A1"] + _expand("N", 1, 6) + ["D7", "D8"] + _expand("N", 8, 15)
            + ["D14", "D15"] + _expand("N", 18, 22) + ["A12"],
            _expand("D", 1, 6) + ["N7"] + _expand("D", 9, 13) + ["N16", "N17"]
            + _expand("D", 16, 19))
        report = verify_solution(first, inst, 2)
        assert not report.violations and report.class_weights == (110, 74)

        second = _as_solution(
            inst,
            _expand("N", 1, 22) + ["A12"],
            ["A1"] + _expand("D", 1, 19))
        report = verify_solution(second, inst, 2)
        assert not report.violations and report.class_weights == (97, 87)

        sol1 = solve_mwkc(inst, 1)
        sol2 = solve_mwkc(inst, 2)
        sol3 = solve_mwkc(inst, 3)
        oracle1 = brute_force_mwkc(inst, 1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f} s"
        assert sol1.total_weight == oracle1.best_weight
        assert not verify_solution(sol2, inst, 2).violations
        assert sol3.total_weight == 215
        # the first partition with A9 (18:00-19:00, 4 viewers) in place of
        # N16 + N17 (the same hour, 3 viewers) in its second session
        third = _as_solution(
            inst,
            ["A1"] + _expand("N", 1, 6) + ["D7", "D8"] + _expand("N", 8, 15)
            + ["D14", "D15"] + _expand("N", 18, 22) + ["A12"],
            _expand("D", 1, 6) + ["N7"] + _expand("D", 9, 13) + ["A9"]
            + _expand("D", 16, 19))
        report = verify_solution(third, inst, 2)
        assert not report.violations and report.class_weights == (110, 75)
        # the spec's two reference partitions weigh 184; swapping A9 for
        # N16 + N17 gives 185, the two-session optimum
        oracle2 = brute_force_mwkc(inst, 2)
        assert sol2.total_weight == third.total_weight == oracle2.best_weight == 185, (
            f"expected 185 (the A9 swap), got solver {sol2.total_weight}, "
            f"partition {third.total_weight}, oracle {oracle2.best_weight}")


def test_acceptance_4_oracle_equivalence(capsys):
    with criterion(capsys, "ACCEPTANCE 4 (oracle equivalence, 200 instances)"):
        rng = random.Random(1693)
        for _ in range(200):
            n = rng.randint(1, 16)
            triples = []
            for _ in range(n):
                s = rng.randint(0, 47)
                triples.append((s, rng.randint(s + 1, 48), rng.randint(0, 9)))
            inst = make_instance(triples)
            for k in (1, 2, 3):
                sol = solve_mwkc(inst, k)
                assert sol.total_weight == brute_force_mwkc(inst, k).best_weight
                assert not verify_solution(sol, inst, k).violations


def test_acceptance_5_structural_invariants(capsys):
    with criterion(capsys, "ACCEPTANCE 5 (structural invariants, 500 instances)"):
        rng = random.Random(2805)
        for _ in range(500):
            n = rng.randint(1, 24)
            triples = []
            for _ in range(n):
                s = rng.randint(0, 47)
                triples.append((s, rng.randint(s + 1, 48), rng.randint(0, 9)))
            inst = make_instance(triples)
            cs = enumerate_maximal_cliques(inst)
            assert cs.r <= inst.n
            cliques = cs.cliques
            for vid, (p, q) in enumerate(cs.spans):
                member_of = [i + 1 for i, c in enumerate(cliques) if vid in c]
                assert member_of == list(range(p, q + 1))
            omega = max_depth(inst)
            totals = []
            for k in range(1, omega + 2):
                net = build_network(cs, inst, k)
                pi = compute_pi(net)
                weight_u = transform_weights(net, pi)
                assert all(0 <= wu <= pi[0] for wu in weight_u)
                flow = solve_min_cost_k_flow(net, weight_u)
                weight_n = flow_cost(net.weight, flow)
                assert weight_n + flow_cost(weight_u, flow) == k * pi[0]
                sol = solve_mwkc(inst, k)
                assert sol.total_weight == weight_n
                assert max_depth(inst, sol.Q) <= k
                if k == 1:
                    assert sol.total_weight == pi[0]
                totals.append(sol.total_weight)
            assert totals == sorted(totals)
            assert totals[-1] == totals[-2] == inst.total_weight


def test_acceptance_6_scale_smoke(capsys):
    with criterion(capsys, "ACCEPTANCE 6 (n=5000 scale smoke)"):
        rng = random.Random(4096)
        triples = []
        for _ in range(5000):
            s = rng.randint(0, 100_000)
            triples.append((s, s + rng.randint(1, 1000), rng.randint(0, 9)))
        inst = make_instance(triples)
        t0 = time.perf_counter()
        sol = solve_mwkc(inst, 4)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f} s"
        assert not verify_solution(sol, inst, 4).violations
