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


def test_bench_day_cli_answers_unchanged():
    """The whole CSV path (parse, validate, to_intervals, solve, output) on
    the seed-0 day-cli days gives the answers every change has reproduced."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "run", "day-cli", "0", "0.5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failed"] == 0, record["failures"]
    assert record["golden_checked"]
    assert record["answers_digest"] == (
        "02a0bbaee1ec6cee5f648df9d638529bfdc6f6465c6740ea810df7575a6f5ccc")
