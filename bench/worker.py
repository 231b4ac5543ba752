"""One benchmark worker: a fresh interpreter that sets up and runs one workload.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is "run" (the untraced closed loop) or "trace" (untraced and traced
ops interleaved, then the per-layer probes). The last line of stdout is one
JSON object with the raw figures; bench/run.py starts the worker and turns
those figures into metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Set-up starts here, before anything else is imported, so that modules
# sessionpick shares with the benchmark are not already loaded.
_t0 = time.perf_counter()
import sessionpick  # noqa: E402
import sessionpick.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager, redirect_stderr  # noqa: E402

import sessionpick.solver  # noqa: E402
from sessionpick import (InstanceTooLarge, IntervalInstance,  # noqa: E402
                         KcolourSolution, Vertex, brute_force_mwkc,
                         build_network, connected_components,
                         enumerate_maximal_cliques, parse_schedule, solve_mwkc,
                         to_intervals, validate_schedule, verify_solution)

import workloads as wl  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
MAX_REPORTED_FAILURES = 5
BUILD_RUNS = 5  # timed builds of the program-side inputs; set-up reports their median
CLI_PROBES = 5  # cli.main calls in the traced run of a workload whose op is not the CLI
SCHEDULE = ("schedule.parse", "schedule.validate", "schedule.to_intervals")
# The calls into each layer that cli.main and solve_mwkc make, named by the
# module that makes them. The traced run routes each through a span.
LAYER_CALLS = (
    (sessionpick.cli, "parse_schedule", "schedule.parse"),
    (sessionpick.cli, "validate_schedule", "schedule.validate"),
    (sessionpick.cli, "to_intervals", "schedule.to_intervals"),
    (sessionpick.cli, "solve_mwkc", "solver.solve"),
    (sessionpick.solver, "enumerate_maximal_cliques", "intervals.cliques"),
    (sessionpick.solver, "build_network", "solver.build"),
    (sessionpick.solver, "compute_pi", "solver.pi"),
    (sessionpick.solver, "transform_weights", "solver.transform"),
    (sessionpick.solver, "solve_min_cost_k_flow", "solver.flow"),
    (sessionpick.solver, "extract_solution", "solver.extract"),
)


class _Sink:
    """Stands in for stderr: the CLI's human-readable table is discarded."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


SINK = _Sink()


def host_loop_ms() -> float:
    """A fixed pure-Python loop that does not touch sessionpick; it reads
    how fast the host runs Python right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) & 0xFFFF
    return (time.perf_counter() - t0) * 1e3


def build(spec: wl.Workload, raw: list) -> list[IntervalInstance]:
    """The program-side inputs; the timed part of set-up."""
    if spec.source == "csv":
        return [to_intervals(parse_schedule(text, "csv")) for text in raw]
    return [IntervalInstance(tuple(Vertex(i, s, f, w) for i, (s, f, w) in enumerate(vs)))
            for vs in raw]


class Tracer:
    """Spans [name, start, end, parent index, op id], kept in memory. A span
    opened inside another one is its child."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op = None

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.open[-1] if self.open else None, self.op])
        self.open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def layer_spans(self):
        """While open, the program's own calls into each layer make spans."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in LAYER_CALLS]
        for (module, attr, name), (_, _, fn) in zip(LAYER_CALLS, saved):
            setattr(module, attr, functools.partial(self.call, name, fn))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


class Bench:
    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.spec = wl.WORKLOADS[name]
        self.raw = wl.generate(name, seed)
        self.build_s = []
        for _ in range(BUILD_RUNS):
            t0 = time.perf_counter()
            self.insts = build(self.spec, self.raw)
            self.build_s.append(time.perf_counter() - t0)
        self.seq = wl.ops(name)
        self.out_path = os.path.join(workdir, "solution.json")
        self.argv = []
        if self.spec.op == "cli":
            for index, text in enumerate(self.raw):
                path = os.path.join(workdir, f"day{index}.csv")
                with open(path, "w") as fh:
                    fh.write(text)
            self.argv = [["solve", "--input", os.path.join(workdir, f"day{i}.csv"),
                          "--k", str(k), "--output", self.out_path] for i, k in self.seq]
        with open(GOLDEN) as fh:
            golden = json.load(fh).get(name, {})
        self.golden = golden["totals"] if golden.get("seed") == seed else None
        self.digests: dict[int, str] = {}
        self.totals: dict[int, int] = {}
        self.passed: dict[int, int] = defaultdict(int)  # ops of p that passed check()
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    # -- ops -------------------------------------------------------------

    def call(self, p: int):
        """One op, untraced: the only code inside the timed region."""
        try:
            if self.spec.op == "cli":
                with redirect_stderr(SINK):
                    return sessionpick.cli.main(self.argv[p])
            index, k = self.seq[p]
            return solve_mwkc(self.insts[index], k)
        except Exception as exc:  # an op that raises is a failed op
            return exc

    def traced_call(self, tr: Tracer, op, p: int):
        """One op with a span around each call into a layer, then the layer
        calls that price what the op itself does not do: parsing, for a
        library op on a schedule, and the verifier."""
        index, k = self.seq[p]
        inst = self.insts[index]
        tr.op = op
        try:
            with tr.layer_spans():
                if self.spec.op == "cli":
                    with redirect_stderr(SINK):
                        answer = tr.call("op", tr.call, "cli.main", sessionpick.cli.main,
                                         self.argv[p])
                else:
                    answer = tr.call("op", tr.call, "solver.solve", solve_mwkc, inst, k)
            if self.spec.op != "cli" and self.spec.source == "csv":
                tr.call("layers", schedule_calls, tr, self.raw[index])
            sol = answer if self.spec.op != "cli" else self.answer(p, answer)[0]
            tr.call("oracle.verify", verify_solution, sol, inst, k)
            return answer
        except Exception as exc:
            return exc

    def counts(self, p: int) -> dict:
        """Work counts for distinct op p, taken outside any span."""
        index, k = self.seq[p]
        inst = self.insts[index]
        cs = enumerate_maximal_cliques(inst)
        net = build_network(cs, inst, k)
        out = {"intervals.r": cs.r,
               "intervals.clique_members": sum(len(c) for c in cs.cliques),
               "intervals.omega": max(len(c) for c in cs.cliques),
               "intervals.components": len(connected_components(inst)),
               "solver.arcs": len(net.arcs), "solver.nodes": net.node_count,
               "solver.rounds": k}
        if self.spec.source == "csv":
            out["schedule.input_bytes"] = len(self.raw[index].encode())
            out["schedule.slots"] = inst.n
        return out

    # -- answer checks, all outside the timed region ---------------------

    def reference_totals(self, p: int) -> list[tuple[str, int]]:
        """Independent totals for distinct op p."""
        index, k = self.seq[p]
        refs = []
        if self.golden is not None:
            refs.append(("golden", self.golden[p]))
        intervals = wl.instance_intervals(self.name, self.raw[index])
        refs.append(("coordinate-flow optimum", wl.best_total(intervals, k)))
        if self.name == "tiny-batch":
            try:
                refs.append(("oracle", brute_force_mwkc(self.insts[index], k).best_weight))
            except InstanceTooLarge:
                pass
        return refs

    def answer(self, p: int, result) -> tuple[KcolourSolution, list, list[str]]:
        """The op's solution, its sessions as slot ids, and format problems."""
        index, k = self.seq[p]
        inst = self.insts[index]
        if self.spec.op != "cli":
            names = inst.provenance
            return result, [[names[v] if names else v for v in c] for c in result.classes], []
        if result != 0:
            raise RuntimeError(f"cli.main returned {result}")
        with open(self.out_path) as fh:
            payload = json.load(fh)
        vid = {slot_id: v for v, slot_id in inst.provenance.items()}
        problems, classes, sessions = [], [], []
        for si, session in enumerate(payload["sessions"], start=1):
            ids = [slot["slot_id"] for slot in session["slots"]]
            if session["weight"] != sum(slot["viewers"] for slot in session["slots"]):
                problems.append(f"session {si}: weight does not match its slots")
            sessions.append(ids)
            classes.append(tuple(vid[i] for i in ids))
        sol = KcolourSolution(payload["k"], frozenset(v for c in classes for v in c),
                              tuple(classes), payload["total_weight"])
        return sol, sessions, problems

    def check(self, p: int, result) -> None:
        index, k = self.seq[p]
        self.attempted += 1
        try:
            if isinstance(result, Exception):
                raise result
            sol, sessions, problems = self.answer(p, result)
            problems += verify_solution(sol, self.insts[index], k).violations
            digest = hashlib.sha256(repr((sol.total_weight, sessions)).encode()).hexdigest()
            if self.digests.setdefault(p, digest) != digest:
                problems.append("answer differs from the first answer to this op")
            self.totals.setdefault(p, sol.total_weight)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.fail(p, 1, problems)
        else:
            self.passed[p] += 1

    def fail(self, p: int, ops: int, problems: list[str]) -> None:
        index, k = self.seq[p]
        self.failed += ops
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"op {p} (instance {index}, k={k}): {'; '.join(problems)}")

    def check_totals(self) -> None:
        """Compare each distinct op's total with the references. Every
        passing repeat gave the same answer as the first, so a wrong total
        fails them all. Runs after the loop, so the references' memory
        stays out of the peak RSS reading."""
        for p, ops in self.passed.items():
            problems = [f"total {self.totals[p]} != {source} {total}"
                        for source, total in self.reference_totals(p)
                        if self.totals[p] != total]
            if problems:
                self.fail(p, ops, problems)

    def answers_digest(self) -> str:
        h = hashlib.sha256()
        for p in sorted(self.digests):
            h.update(self.digests[p].encode())
        return h.hexdigest()

    # -- loops -----------------------------------------------------------

    def warm_up(self) -> None:
        """One pass over the distinct ops, so that lazy set-up inside the
        program is done before timing starts."""
        for p in range(len(self.seq)):
            self.check(p, self.call(p))

    def run(self, seconds: float) -> dict:
        """The closed loop, for `seconds` of op time."""
        latencies = array("d")  # no float objects, so RSS does not grow with op count
        busy, j = 0.0, 0
        while busy < seconds:
            p = j % len(self.seq)
            t0 = time.perf_counter()
            result = self.call(p)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            self.check(p, result)
            j += 1
            busy += dt
        return {"latencies": latencies}

    def trace(self, seconds: float) -> dict:
        tr = Tracer()
        counts: dict = {}
        latencies = array("d")
        deadline = time.perf_counter() + seconds
        j = 0
        while time.perf_counter() < deadline:
            p = j % len(self.seq)
            t0 = time.perf_counter()
            result = self.call(p)
            latencies.append(time.perf_counter() - t0)
            self.check(p, result)
            self.check(p, self.traced_call(tr, j, p))
            counts[j] = self.counts(p) if j < len(self.seq) else counts[p]
            if self.spec.op == "cli":
                counts[j]["cli.output_bytes"] = os.path.getsize(self.out_path)
            j += 1
        if self.spec.op != "cli":
            self.cli_probes(tr, counts)
        tracemalloc.start()
        self.call(0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with open(os.path.join(ROOT, ".bench_out", f"spans-{self.name}-seed{self.seed}.jsonl"),
                  "w") as fh:
            for span in tr.spans:
                fh.write(json.dumps(span) + "\n")
        return {"latencies": latencies,
                "per_layer": per_layer(tr.spans, counts, latencies),
                "mem.solve_peak_mb": peak / 2**20}

    def cli_probes(self, tr: Tracer, counts: dict) -> None:
        """cli.main on a schedule of this workload, or on a day-cli day when
        it has none, so every workload reports the CLI layer."""
        text, k = wl.cli_input(self.name, self.seed)
        path = os.path.join(self.workdir, "probe.csv")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["solve", "--input", path, "--k", str(k), "--output", self.out_path]
        for r in range(CLI_PROBES):
            tr.op = f"probe{r}"
            with tr.layer_spans(), redirect_stderr(SINK):
                code = tr.call("op", tr.call, "cli.main", sessionpick.cli.main, argv)
            if code != 0:
                raise RuntimeError(f"cli.main returned {code} on the probe schedule")
            counts[tr.op] = {"schedule.input_bytes": len(text.encode()),
                             "schedule.slots": len(text.splitlines()) - 1,
                             "cli.output_bytes": os.path.getsize(self.out_path)}


def schedule_calls(tr: Tracer, text: str) -> None:
    schedule = tr.call("schedule.parse", parse_schedule, text.encode(), "csv")
    tr.call("schedule.validate", validate_schedule, schedule)
    tr.call("schedule.to_intervals", to_intervals, schedule)


def per_layer(spans: list, counts: dict, latencies) -> dict:
    """Per-layer metrics: medians over ops of each layer's time and work per
    op, self times of solve_mwkc and cli.main, and each layer's share of
    the op's time summed over the run.

    A figure comes from the workload's own ops where they make the calls it
    needs, and from the CLI probes otherwise.
    """
    total: dict = defaultdict(lambda: defaultdict(float))  # op -> span name -> ms
    own_time: dict = defaultdict(lambda: defaultdict(float))  # the same, less children
    in_op: dict = defaultdict(lambda: defaultdict(float))  # only spans inside "op"
    root: list[int] = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        ms = (end - start) * 1e3
        total[op][name] += ms
        own_time[op][name] += ms
        if parent is not None:
            own_time[op][spans[parent][0]] -= ms
        root.append(i if parent is None else root[parent])
        if spans[root[i]][0] == "op":
            in_op[op][name] += ms

    def median(table: dict, name: str) -> float:
        for probe in (False, True):
            values = [d[name] for op, d in table.items()
                      if name in d and str(op).startswith("probe") == probe]
            if values:
                return statistics.median(values)
        raise KeyError(f"no op called {name}")

    out = {f"{name}_ms": median(total, name) for _, _, name in LAYER_CALLS
           if name != "solver.solve"}
    out["oracle.verify_ms"] = median(total, "oracle.verify")
    out["cli.main_ms"] = median(total, "cli.main")
    out["solver.glue_ms"] = median(own_time, "solver.solve")
    out["cli.glue_ms"] = median(own_time, "cli.main")
    for name in ("schedule.input_bytes", "schedule.slots", "intervals.r",
                 "intervals.clique_members", "intervals.omega", "intervals.components",
                 "solver.arcs", "solver.nodes", "solver.rounds", "cli.output_bytes"):
        out[name] = median(counts, name)
    out["solver.flow_ms_per_round"] = out["solver.flow_ms"] / out["solver.rounds"]

    share: dict = defaultdict(float)
    for op, d in in_op.items():
        if str(op).startswith("probe"):
            continue
        share["op"] += d["op"]
        share["schedule"] += sum(d[n] for n in SCHEDULE)
        share["intervals"] += d["intervals.cliques"]
        share["solver.flow"] += d["solver.flow"]
        share["solver.other"] += d["solver.solve"] - d["intervals.cliques"] - d["solver.flow"]
        share["cli.glue"] += own_time[op]["cli.main"]
    for layer in ("schedule", "intervals", "solver.flow", "solver.other", "cli.glue"):
        out[f"share.{layer}"] = share[layer] / share["op"]
    traced = statistics.median(d["op"] for op, d in total.items()
                               if not str(op).startswith("probe"))
    untraced = statistics.median(latencies) * 1e3
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out


def main() -> int:
    mode, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    if not os.path.abspath(sessionpick.__file__).startswith(SRC + os.sep):
        print(f"sessionpick was imported from {sessionpick.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        bench = Bench(name, seed, workdir)
        drift = [host_loop_ms() for _ in range(3)]
        bench.warm_up()
        record = bench.run(seconds) if mode == "run" else bench.trace(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        drift += [host_loop_ms() for _ in range(3)]
        bench.check_totals()
        record.update({
            "latencies": record["latencies"].tolist(),
            "import_s": IMPORT_S, "build_s": bench.build_s,
            "host.loop_ms": statistics.median(drift),
            "peak_rss_mb": peak_rss_mb,
            "attempted": bench.attempted, "failed": bench.failed,
            "failures": bench.failures, "answers_digest": bench.answers_digest(),
            "totals": [bench.totals.get(p) for p in range(len(bench.seq))],
            "golden_checked": bench.golden is not None,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
