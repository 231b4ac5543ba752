"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads a,b] [--seeds 0-9] [--seconds S] [--baseline FILE]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound from BENCHMARK.json. With --baseline it writes those medians and
quartiles to FILE as a JSON record of this commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--baseline")
    args = parser.parse_args()
    metrics = spec["end_to_end"]
    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls = []
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        summary[workload] = {}
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
            print(f"  {m['name']:28} {med:12.5g} {m['unit']:6} spread {spread:6.3f}"
                  f"  bound {m['bound']:.2f}")
    if args.baseline:
        record = {"python": sys.version.split()[0], "cpus": os.cpu_count(),
                  "seeds": args.seeds, "seconds": args.seconds, "workloads": summary}
        with open(args.baseline, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
