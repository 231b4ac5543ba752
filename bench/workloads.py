"""Seeded inputs for the sessionpick benchmark.

Uses the standard library only and never imports sessionpick, so the
inputs, and the shape figures that the self-tests check, do not depend on
the code being measured. The same (workload, seed) always gives
byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import NamedTuple

DAY = 1440  # minutes in a broadcast day
QUARTERS = 96  # quarter hours in a broadcast day


class Workload(NamedTuple):
    name: str
    why: str
    op: str  # "cli" (sessionpick.cli.main solve) or "lib" (solve_mwkc)
    source: str  # "csv" (schedule text) or "vertices" ((s, f, w) tuples)
    instances: int  # distinct instances per seed
    ks: tuple[int, ...]  # every instance is solved once per k, in this order
    # inclusive ranges the generated shape must stay in
    n: tuple[int, int]
    omega: tuple[int, int]
    clique_members: tuple[int, int]  # per instance, sum of |C_i|
    components: tuple[int, int]


WORKLOADS = {
    w.name: w for w in (
        Workload("day-cli",
                 "the planner's everyday call: CLI solve, k=4, on ~1.5k-slot "
                 "minute-resolution days; parsing and CLI glue matter as much as the flow",
                 "cli", "csv", 6, (4,), (1300, 1600), (55, 60), (50_000, 90_000), (1, 1)),
        Workload("day-deep-k",
                 "many parallel streams: solve_mwkc, k=64, on ~3.7k-slot days with "
                 "~150 channels; the min-cost flow dominates",
                 "lib", "csv", 4, (64,), (3300, 3900), (140, 150), (150_000, 230_000), (1, 1)),
        Workload("dense-sweep",
                 "solve_mwkc, k=1, n=10k on [0, 1e5] with long intervals; the "
                 "clique sweep materialises ~1.5M members and sets peak memory",
                 "lib", "vertices", 2, (1,), (10_000, 10_000), (300, 400),
                 (1_200_000, 1_900_000), (1, 1)),
        Workload("tiny-batch",
                 "hundreds of 8-40 slot quarter-hour days, k=1..3; per-call "
                 "fixed cost dominates, so set-up-for-speed trades show here",
                 "lib", "csv", 300, (1, 2, 3), (8, 40), (1, 16), (8, 400), (1, 40)),
    )
}


def _rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _audience(t: int) -> float:
    """Relative audience at minute t: a morning bump and an evening peak."""
    return (0.3 + 0.5 * math.exp(-((t - 480) / 90) ** 2)
            + 2.0 * math.exp(-((t - 1230) / 120) ** 2))


def broadcast_day(rng: random.Random, channels: int) -> str:
    """One CSV day: every channel airs back-to-back programmes of 5-115
    minutes from 00:00 to 24:00, so about one programme per hour each."""
    lines = ["channel,title,start,end,viewers"]
    for c in range(channels):
        popularity = rng.uniform(0.2, 3.0)
        t, i = 0, 0
        while t < DAY:
            end = min(DAY, t + rng.randint(5, 115))
            viewers = int(popularity * _audience((t + end) // 2) * (end - t) * rng.uniform(0.5, 1.5))
            lines.append(f"ch{c:03d},c{c:03d}-p{i:03d},{_hhmm(t)},{_hhmm(end)},{viewers}")
            t, i = end, i + 1
    return "\n".join(lines) + "\n"


def dense_vertices(rng: random.Random, n: int = 10_000, span: int = 100_000,
                   max_len: int = 6000) -> tuple[tuple[int, int, int], ...]:
    """n weighted intervals (s, f, w) with integer coordinates in [0, span]."""
    out = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        s = rng.randint(0, span - length)
        out.append((s, s + length, rng.randint(1, 1000)))
    return tuple(out)


def tiny_day(rng: random.Random, index: int) -> str:
    """A small CSV day of 8-40 slots on quarter-hour boundaries."""
    n = rng.randint(8, 40)
    lines = ["channel,title,start,end,viewers"]
    for i in range(n):
        length = rng.randint(1, 8)
        start = rng.randint(0, QUARTERS - length)
        lines.append(f"ch{rng.randint(0, 5)},t{index:03d}-{i:02d},"
                     f"{_hhmm(15 * start)},{_hhmm(15 * (start + length))},{rng.randint(0, 500)}")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> list:
    """The workload's distinct instances: CSV texts or vertex tuples."""
    rng = _rng(workload, seed)
    count = WORKLOADS[workload].instances
    if workload == "day-cli":
        return [broadcast_day(rng, 60) for _ in range(count)]
    if workload == "day-deep-k":
        return [broadcast_day(rng, 150) for _ in range(count)]
    if workload == "dense-sweep":
        return [dense_vertices(rng) for _ in range(count)]
    return [tiny_day(rng, i) for i in range(count)]


def ops(workload: str) -> list[tuple[int, int]]:
    """The op sequence of one pass: (instance index, k) pairs."""
    spec = WORKLOADS[workload]
    return [(i, k) for i in range(spec.instances) for k in spec.ks]


def csv_intervals(text: str) -> list[tuple[int, int, int]]:
    """(start, end, viewers) in minutes, read from the generated CSV."""
    out = []
    for line in text.splitlines()[1:]:
        _, _, start, end, viewers = line.split(",")
        h0, m0 = start.split(":")
        h1, m1 = end.split(":")
        out.append((60 * int(h0) + int(m0), 60 * int(h1) + int(m1), int(viewers)))
    return out


def shape(intervals) -> dict[str, int]:
    """n, omega, sum of maximal clique sizes and component count, from one
    endpoint sweep under the open-interval overlap rule.

    A maximal clique closes at every finish that follows at least one start;
    its size is the depth just before that finish.
    """
    events = sorted([(f, 0) for s, f, _ in intervals] + [(s, 1) for s, f, _ in intervals])
    depth = omega = members = components = 0
    pending = False
    for _, kind in events:
        if kind == 1:
            if depth == 0:
                components += 1
            depth += 1
            omega = max(omega, depth)
            pending = True
        else:
            if pending:
                members += depth
                pending = False
            depth -= 1
    return {"n": len(intervals), "omega": omega, "clique_members": members,
            "components": components}


def best_total(intervals, k: int) -> int:
    """Optimum total weight of k sessions, computed independently of
    sessionpick: min-cost flow on the coordinate line (Arkin & Silverberg
    1987) rather than on the clique order. Nodes are the distinct
    endpoints, a capacity-k chain joins neighbours, and each interval is an
    arc of capacity 1 and cost -w from its start to its finish, so touching
    intervals may share a session. k rounds of Dijkstra on reduced costs."""
    points = sorted({x for s, f, _ in intervals for x in (s, f)})
    index = {x: i for i, x in enumerate(points)}
    n = len(points)
    graph: list[list[list[int]]] = [[] for _ in range(n)]  # [head, capacity, cost, reverse]

    def add(u: int, v: int, capacity: int, cost: int) -> None:
        graph[u].append([v, capacity, cost, len(graph[v])])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1])

    for i in range(n - 1):
        add(i, i + 1, k, 0)
    for s, f, w in intervals:
        add(index[s], index[f], 1, -w)
    # every arc points forward, so one pass in coordinate order gives the
    # shortest distances from the first point: valid starting potentials
    potential = [0] * n
    for u in range(n):
        for v, capacity, cost, _ in graph[u]:
            if capacity and v > u:
                potential[v] = min(potential[v], potential[u] + cost)
    total = 0
    for _ in range(k):
        dist = [math.inf] * n
        dist[0] = 0
        via: list[tuple[int, int] | None] = [None] * n
        heap = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for e, (v, capacity, cost, _) in enumerate(graph[u]):
                nd = d + cost + potential[u] - potential[v]
                if capacity and nd < dist[v]:
                    dist[v] = nd
                    via[v] = (u, e)
                    heapq.heappush(heap, (nd, v))
        total += dist[n - 1] + potential[n - 1] - potential[0]
        for v in range(n):
            potential[v] += dist[v]
        v = n - 1
        while via[v] is not None:
            u, e = via[v]
            arc = graph[u][e]
            arc[1] -= 1
            graph[v][arc[3]][1] += 1
            v = u
    return -total


def cli_input(workload: str, seed: int) -> tuple[str, int]:
    """A schedule and k for the CLI probes of the traced run: the workload's
    first day, or a day-cli day when the workload has no schedules."""
    if WORKLOADS[workload].source == "csv":
        return generate(workload, seed)[0], WORKLOADS[workload].ks[0]
    return generate("day-cli", seed)[0], WORKLOADS["day-cli"].ks[0]


def instance_intervals(workload: str, instance) -> list[tuple[int, int, int]]:
    if WORKLOADS[workload].source == "csv":
        return csv_intervals(instance)
    return list(instance)

