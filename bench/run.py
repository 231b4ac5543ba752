"""The sessionpick benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts a few fresh interpreters
that time `import sessionpick.cli`, then one worker process
(bench/worker.py) that runs the workload as a closed loop with one caller
for S seconds of op time and checks every answer. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it interleaves traced and
untraced ops and reports the per-layer metrics.
The last line of stdout is one JSON object with the metrics; the lines
before it are for people. Exit code 1 means an op failed its answer check,
2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
IMPORT_RUNS = 5  # fresh interpreters; the worker's own import is one more reading
TIME_LIMIT_S = 170
# The ladder stops at p99: above it, the tail of a 0.3 ms op on a shared
# host reads scheduler interrupts rather than the program.
TAIL_PERCENTILES = (99, 98, 95, 90, 80, 75, 67, 50)


class BenchError(Exception):
    pass


def _remaining(started: float) -> float:
    left = TIME_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError(f"out of time ({TIME_LIMIT_S} s)")
    return left


def _worker(mode: str, args: argparse.Namespace, started: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}


def import_times(started: float) -> list[float]:
    """Seconds to `import sessionpick.cli`, each timed inside a fresh
    interpreter, so interpreter start itself is left out."""
    code = ("import time; t = time.perf_counter(); import sessionpick.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, check=True,
                              timeout=_remaining(started))
        times.append(float(proc.stdout))
    return times


def cli_process_ms(args: argparse.Namespace, started: float) -> float:
    """Wall time of one `sessionpick solve` subprocess, interpreter start
    included; for reference only."""
    text, k = wl.cli_input(args.workload, args.seed)
    path = os.path.join(OUT, f"process-{args.workload}.csv")
    out = os.path.join(OUT, f"process-{args.workload}.json")
    with open(path, "w") as fh:
        fh.write(text)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "sessionpick", "solve", "--input", path,
                    "--k", str(k), "--output", out], cwd=ROOT, env=_env(),
                   stderr=subprocess.DEVNULL, check=True, timeout=_remaining(started))
    elapsed = (time.perf_counter() - t0) * 1e3
    os.remove(path)
    os.remove(out)
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above it) for the highest listed
    percentile, by nearest rank, with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 50, statistics.median(ordered), n // 2


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    imports = import_times(started)
    rec = _worker("trace" if args.trace else "run", args, started)
    imports.append(rec["import_s"])
    lat = rec.pop("latencies")
    pct, tail_s, beyond = tail(lat)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": len(lat), "tail_percentile": pct,
        "tail_beyond": beyond,
        "import_s": imports, "build_s": rec["build_s"],
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        **{k: rec[k] for k in ("attempted", "failed", "failures", "answers_digest",
                               "golden_checked", "totals", "host.loop_ms")},
    }
    info["failed_frac"] = rec["failed"] / rec["attempted"]
    if args.trace:
        metrics = dict(rec["per_layer"])
        metrics["mem.solve_peak_mb"] = rec["mem.solve_peak_mb"]
        metrics["cli.import_ms"] = statistics.median(imports) * 1e3
        metrics["cli.process_ms"] = cli_process_ms(args, started)
        metrics["host.loop_ms"] = rec["host.loop_ms"]
    else:
        metrics = {
            "solve_ms_p50": statistics.median(lat) * 1e3,
            "solve_ms_tail": tail_s * 1e3,
            "solves_per_s": len(lat) / sum(lat),
            "setup_s": statistics.median(imports) + statistics.median(rec["build_s"]),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, info = measure(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"metrics": metrics, **info}, fh, indent=1)

    if args.trace:
        print(f"{args.workload} seed {args.seed}: {info['samples']} untraced ops, each "
              f"followed by its traced twin, for {args.seconds:g} s")
    else:
        print(f"{args.workload} seed {args.seed}: {info['samples']} ops, closed loop, "
              f"1 caller, {args.seconds:g} s of op time")
    for name, value in metrics.items():
        print(f"  {name:28} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  tail is p{info['tail_percentile']:g} with {info['tail_beyond']} of "
              f"{info['samples']} samples above it")
    print(f"  {'failed_frac':28} {info['failed_frac']:14.6g} ({info['failed']} of "
          f"{info['attempted']} ops failed their answer check)")
    if "host.loop_ms" not in metrics:
        print(f"  {'host.loop_ms':28} {info['host.loop_ms']:14.6g} ms (host speed reading; "
              f"no metric is scaled by it)")
    print(f"  answers sha256 {info['answers_digest']}"
          f"{' (golden totals checked)' if info['golden_checked'] else ''}")
    for failure in info["failures"]:
        print(f"  FAILED {failure}")
    ok = info["failed"] == 0
    print(json.dumps({"correct": ok, "attempted": info["attempted"], "failed": info["failed"],
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
