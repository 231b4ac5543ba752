"""The benchmark in bench/ wraps solver stages by name and reads fields of
their results; a short run of each worker mode keeps that contract honest."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.mark.parametrize("mode", ["run", "trace"])
def test_bench_worker_runs_clean(mode):
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, "tiny-batch", "0", "0.5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["failures"]


@pytest.mark.parametrize("workload,digest", [
    ("day-cli", "02a0bbaee1ec6cee5f648df9d638529bfdc6f6465c6740ea810df7575a6f5ccc"),
    ("day-deep-k", "9a5635c1ae3695e4b639cfa2cdca487971675c5999d8c1bbbc86a01924cefdbb"),
    ("dense-sweep", "92d290f41dc6bbf220cd5f4f991bd33e191a054dc3c86aa0e21e52ff4ebc52f6"),
], ids=["day-cli", "day-deep-k", "dense-sweep"])
def test_bench_day_cli_answers_unchanged(workload, digest):
    """The seed-0 ops of each gated workload give the answers every change
    has reproduced: for day-cli the whole CSV path (parse, validate,
    to_intervals, solve, output), for day-deep-k all 64 sessions in order,
    and for dense-sweep a library op on an instance without provenance."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "run", workload, "0", "0.5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failed"] == 0, record["failures"]
    assert record["golden_checked"]
    assert record["answers_digest"] == digest
