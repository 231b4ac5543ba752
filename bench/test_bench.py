"""Self-tests of the benchmark: python3 -m pytest bench"""

import json
import os
import subprocess
import sys

import pytest

import run
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sessionpick import (InstanceTooLarge, brute_force_mwkc,  # noqa: E402
                         parse_schedule, to_intervals)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert wl.generate(workload, 7) == wl.generate(workload, 7)
    assert wl.generate(workload, 7) != wl.generate(workload, 8)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_shape_stays_in_range(workload, seed):
    spec = wl.WORKLOADS[workload]
    raw = wl.generate(workload, seed)
    assert len(raw) == spec.instances
    assert {k for _, k in wl.ops(workload)} == set(spec.ks)
    for instance in raw:
        shape = wl.shape(wl.instance_intervals(workload, instance))
        for field in ("n", "omega", "clique_members", "components"):
            lo, hi = getattr(spec, field)
            assert lo <= shape[field] <= hi, (field, shape[field])


def test_reference_optimum_matches_oracle():
    checked = 0
    for text in wl.generate("tiny-batch", 0)[:60]:
        inst = to_intervals(parse_schedule(text, "csv"))
        for k in (1, 2, 3):
            try:
                expected = brute_force_mwkc(inst, k).best_weight
            except InstanceTooLarge:
                continue
            assert wl.best_total(wl.csv_intervals(text), k) == expected
            checked += 1
    assert checked >= 150


def test_reference_optimum_lets_touching_intervals_share_a_session():
    assert wl.best_total([(0, 10, 5), (10, 20, 7), (5, 15, 4)], 1) == 12
    assert wl.best_total([(0, 10, 5), (10, 20, 7), (5, 15, 4)], 2) == 16


def test_golden_totals_cover_every_op_of_seed_0():
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)
    for workload in wl.WORKLOADS:
        assert golden[workload]["seed"] == 0
        assert len(golden[workload]["totals"]) == len(wl.ops(workload))


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([i / 1000 for i in range(1, 2001)]) == (99, 1.98, 20)
    assert run.tail([i / 1000 for i in range(1, 41)]) == (75, 0.03, 10)


def test_benchmark_json_matches_the_workloads():
    spec = _spec()
    assert all(w["why"] == wl.WORKLOADS[w["name"]].why for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_baseline_records_every_end_to_end_metric():
    spec = _spec()
    with open(os.path.join(BENCH, "baseline.json")) as fh:
        baseline = json.load(fh)["workloads"]
    for workload in spec["workloads"]:
        assert set(baseline[workload["name"]]) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in sorted(wl.WORKLOADS)]
                         + [("tiny-batch", 1)])
def test_short_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
