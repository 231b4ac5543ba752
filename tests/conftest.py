"""Shared fixtures, builders, and slow-but-obvious reference implementations
that the real code is tested against."""

from __future__ import annotations

import bisect
import csv
import heapq
import io
import itertools
import json
import random
import re
import sys
from operator import itemgetter
from pathlib import Path

import pytest

from sessionpick import (CliqueSequence, FlowNetwork, IntervalInstance,
                         InternalInvariantViolation, KcolourSolution, Vertex,
                         build_network, compute_pi, connected_components,
                         enumerate_maximal_cliques, solve_min_cost_k_flow,
                         solve_mwkc, transform_weights)
from sessionpick.schedule import (CSV_HEADER, MINUTES_PER_DAY, ProgrammeSlot, ScheduleError,
                                  ValidationIssue, format_time)
from sessionpick.solver import INF

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# ten intervals used throughout: (vertex_id, start, finish, weight);
# drawn so that the clique structure exercises spans of every shape
DEMO10_VERTS = (
    (0, 2, 3, 5),
    (1, 1, 6, 3),
    (2, 7, 8, 6),
    (3, 5, 9, 2),
    (4, 4, 11, 8),
    (5, 12, 15, 4),
    (6, 10, 17, 1),
    (7, 14, 18, 2),
    (8, 13, 19, 5),
    (9, 16, 20, 3),
)

DEMO10_CLIQUES = ((0, 1), (1, 3, 4), (2, 3, 4), (4, 6), (5, 6, 7, 8), (6, 7, 8, 9))
DEMO10_PI = [20, 15, 13, 7, 7, 3, 0]
# transformed weights, arc_id order: 6 c-arcs then 10 i-arcs by vertex id
DEMO10_WEIGHT_U = (5, 2, 6, 0, 4, 3, 0, 4, 0, 6, 0, 0, 6, 5, 2, 0)
DEMO10_SPANS = {0: (1, 1), 1: (1, 2), 2: (3, 3), 3: (2, 3), 4: (2, 4),
                5: (5, 5), 6: (4, 6), 7: (5, 6), 8: (5, 6), 9: (6, 6)}
# the min-cost 2-flow, arc_id order
DEMO10_FLOW_K2 = [0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1]


@pytest.fixture
def demo10() -> IntervalInstance:
    return IntervalInstance(tuple(Vertex(*v) for v in DEMO10_VERTS))


@pytest.fixture
def demo10_csv() -> Path:
    return FIXTURES / "demo10.csv"


@pytest.fixture
def three_channels_csv() -> Path:
    return FIXTURES / "three_channels.csv"


# The time grammar as a regex: parse_time's lookup table must accept,
# reject and word its errors exactly like this on every input.
_TIME = re.compile(r"([0-9]{1,2}):([0-5][0-9])")


def reference_parse_time(text: str) -> int:
    """Minutes since 00:00 of an H:MM or HH:MM time in ASCII digits, up to 24:00."""
    match = _TIME.fullmatch(text.strip())
    if match is None or (minutes := int(match[1]) * 60 + int(match[2])) > MINUTES_PER_DAY:
        raise ValueError(f"bad time {text!r}, expected HH:MM up to 24:00")
    return minutes


# The row-by-row schedule parser and the per-channel validation scan, as
# they stood before ingestion went column-wise: parse_schedule and
# validate_schedule must give the same result, or the same error message,
# on every input.
def _ref_parse_viewers(text: str) -> int:
    digits = text.strip()
    try:
        if digits.isascii() and digits.isdigit():
            return int(digits)
    except ValueError:  # longer than int()'s digit limit
        pass
    raise ScheduleError(f"viewers {text!r} is not a non-negative integer")


def _ref_make_slot(channel: str, title: str, start: str, end: str, viewers: int,
                   seen: set[str]) -> ProgrammeSlot:
    """Raises a ValueError that the caller prefixes with the slot's place."""
    channel = channel.strip()
    title = title.strip()
    if not channel:
        raise ScheduleError("empty channel name")
    if not title:
        raise ScheduleError("empty title")
    if viewers < 0:
        raise ScheduleError(f"viewers must be >= 0, got {viewers}")
    start_min = reference_parse_time(start)
    end_min = reference_parse_time(end)
    if title in seen:
        raise ScheduleError(f"duplicate slot_id {title!r}")
    seen.add(title)
    return ProgrammeSlot(channel, title, start_min, end_min, viewers)


def reference_parse_schedule(source: bytes | str, fmt: str = "csv") -> tuple[ProgrammeSlot, ...]:
    """Parse CSV or JSON schedule data into a tuple of slots, preserving order."""
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8-sig")  # spreadsheet exports lead with a BOM
        except UnicodeDecodeError as exc:
            raise ScheduleError(f"input is not UTF-8: {exc}") from None
    else:
        text = source.removeprefix("\ufeff")  # the one BOM utf-8-sig drops from bytes
    if fmt == "csv":
        return _ref_parse_csv(text)
    if fmt == "json":
        return _ref_parse_json(text)
    raise ScheduleError(f"unknown format {fmt!r}, expected csv or json")


def _ref_parse_csv(text: str) -> tuple[ProgrammeSlot, ...]:
    reader = csv.reader(io.StringIO(text, newline=""))  # LF, CRLF or bare CR
    numbered: list[tuple[int, list[str]]] = []  # (file line the row starts on, row)
    start = 1  # a quoted field may span lines, so rows and lines differ
    try:
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):  # blank lines are skipped
                numbered.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ScheduleError(f"line {reader.line_num}: bad CSV: {exc}") from None
    if not numbered:
        return ()
    (header_line, header_row), *body = numbered
    if [c.strip().lower() for c in header_row] != CSV_HEADER:
        raise ScheduleError(f"line {header_line}: bad header {header_row!r}, "
                            f"expected {','.join(CSV_HEADER)}")
    slots: list[ProgrammeSlot] = []
    seen: set[str] = set()
    for i, row in body:
        if len(row) != 5:
            raise ScheduleError(f"line {i}: expected 5 fields, got {len(row)}")
        channel, title, start, end, viewers = row
        try:
            slots.append(_ref_make_slot(channel, title, start, end, _ref_parse_viewers(viewers),
                                        seen))
        except ValueError as exc:
            raise ScheduleError(f"line {i}: {exc}") from None
    return tuple(slots)


def _ref_parse_json(text: str) -> tuple[ProgrammeSlot, ...]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an int over the digit limit
        raise ScheduleError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("slots"), list):
        raise ScheduleError('expected a top-level object with a "slots" list')
    slots: list[ProgrammeSlot] = []
    seen: set[str] = set()
    for i, rec in enumerate(data["slots"]):
        if not isinstance(rec, dict):
            raise ScheduleError(f"slot {i} is not an object")
        missing = [k for k in CSV_HEADER if k not in rec]
        if missing:
            raise ScheduleError(f"slot {i} missing fields: {', '.join(missing)}")
        viewers = rec["viewers"]
        if isinstance(viewers, bool) or not isinstance(viewers, int):
            raise ScheduleError(f"slot {i}: viewers must be an integer")
        for key in ("channel", "title", "start", "end"):
            if not isinstance(rec[key], str):
                raise ScheduleError(f"slot {i}: {key} must be a string")
        try:
            slots.append(_ref_make_slot(rec["channel"], rec["title"], rec["start"],
                                        rec["end"], viewers, seen))
        except ValueError as exc:
            raise ScheduleError(f"slot {i}: {exc}") from None
    return tuple(slots)


def reference_validate_schedule(s: tuple[ProgrammeSlot, ...]) -> list[ValidationIssue]:
    """Check the model assumptions. Never raises; returns a report.

    ERROR: a slot with start >= end (zero-length or wrapping past midnight).
    WARNING: two slots of the same channel whose open intervals overlap.
    """
    issues: list[ValidationIssue] = []  # ERRORs in input order, then WARNINGs
    by_channel: dict[str, list[ProgrammeSlot]] = {}
    for slot in s:
        if slot.start >= slot.end:
            issues.append(ValidationIssue(
                "ERROR", (slot.title,),
                f"slot {slot.title!r} has start {format_time(slot.start)} "
                f">= end {format_time(slot.end)}"))
        else:
            by_channel.setdefault(slot.channel, []).append(slot)
    for channel in sorted(by_channel):
        group = sorted(by_channel[channel], key=itemgetter(2, 3, 1))  # (start, end, slot_id)
        active: list[ProgrammeSlot] = []
        for slot in group:
            active = [a for a in active if a.end > slot.start]
            for other in active:
                issues.append(ValidationIssue(
                    "WARNING", (other.title, slot.title),
                    f"channel {channel!r}: slots {other.title!r} and {slot.title!r} overlap"))
            active.append(slot)
    return issues


def make_instance(triples) -> IntervalInstance:
    return IntervalInstance(tuple(
        Vertex(i, s, f, w) for i, (s, f, w) in enumerate(triples)))


def random_instance(rng: random.Random, n_min: int = 1, n_max: int = 16,
                    coord_max: int = 48, w_max: int = 9) -> IntervalInstance:
    n = rng.randint(n_min, n_max)
    triples = []
    for _ in range(n):
        s = rng.randint(0, coord_max - 1)
        f = rng.randint(s + 1, coord_max)
        triples.append((s, f, rng.randint(0, w_max)))
    return make_instance(triples)


def ref_overlaps(a: Vertex, b: Vertex) -> bool:
    return a.s < b.f and b.s < a.f


def reference_maximal_cliques(inst: IntervalInstance) -> list[tuple[int, ...]]:
    """All maximal cliques by subset enumeration, ordered by leading point.

    Exponential; only for small n.
    """
    verts = inst.vertices
    n = len(verts)
    cliques = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if all(ref_overlaps(verts[a], verts[b])
                   for a, b in itertools.combinations(combo, 2)):
                member_set = set(combo)
                extendable = any(
                    v not in member_set and all(ref_overlaps(verts[v], verts[u]) for u in combo)
                    for v in range(n))
                if not extendable:
                    cliques.append(combo)
    cliques.sort(key=lambda c: max(verts[v].s for v in c))
    return cliques


# The sweep with two bisects per vertex for the spans.
# enumerate_maximal_cliques, which reads the spans off the sweep itself,
# must return exactly this clique sequence.
def reference_clique_sequence(inst: IntervalInstance) -> CliqueSequence:
    """Sweep the endpoints once, recording a clique at every first finish
    after at least one start.

    At such a finish with coordinate t, the active set is exactly
    {u : s_u < t <= f_u}, which is a maximal clique; the trigger
    coordinates strictly increase, which yields both the clique order and,
    via two bisects per vertex, the contiguous membership spans. Only
    coordinates are swept: a finish at t sees the starts below t, since
    touching intervals do not overlap.
    """
    starts = sorted(inst.s)
    leading: list[int] = []
    triggers: list[int] = []
    seen = 0  # starts already behind the sweep
    for f in sorted(inst.f):
        below = bisect.bisect_left(starts, f, seen)
        if below > seen:
            leading.append(starts[below - 1])
            triggers.append(f)
            seen = below
    return CliqueSequence(
        tuple(leading),
        [bisect.bisect_right(triggers, s) + 1 for s in inst.s],  # first trigger > s
        [bisect.bisect_right(triggers, f) for f in inst.f])  # last trigger <= f


# The network as a tuple of arc triples, built from the span pairs and the
# Vertex records, as it stood before the network became three int columns:
# build_network's arcs view must equal these triples.
def reference_build_network(cs: CliqueSequence, inst: IntervalInstance,
                            k: int) -> tuple[tuple[int, int, int], ...]:
    """c-arcs first, then one i-arc per vertex in vertex-id order, so arc
    ids are reproducible."""
    arcs = [(i, i + 1, 0) for i in range(cs.r)]
    arcs += [(p - 1, q, v.w) for (p, q), v in zip(cs.spans, inst.vertices)]
    return tuple(arcs)


def max_depth(inst: IntervalInstance, selected=None) -> int:
    """Largest number of intervals strictly containing any one point."""
    chosen = inst.vertices if selected is None else [
        v for v in inst.vertices if v.vertex_id in selected]
    events = []
    for v in chosen:
        events.append((v.s, 1, 1))
        events.append((v.f, 0, -1))  # a finish frees the point it touches
    events.sort()
    depth = best = 0
    for _, _, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def flow_cost(costs, flow) -> int:
    return sum(c * f for c, f in zip(costs, flow))


def residual_bellman_ford(net, weight_u, flow) -> list[float]:
    """Source distances over the true residual costs of `flow`, by label
    correction; no potentials, so it checks the solver's Dijkstra rounds."""
    dist = [float("inf")] * net.node_count
    dist[0] = 0
    edges = []
    for a, ((tail, head, _), wu, f) in enumerate(zip(net.arcs, weight_u, flow)):
        if f < (net.k if a < net.r else 1):
            edges.append((tail, head, wu))
        if f > 0:
            edges.append((head, tail, -wu))
    for _ in range(net.node_count - 1):
        changed = False
        for u, v, c in edges:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            break
    return dist


# The plain successive-shortest-paths loop: Dijkstra over every edge of
# every node each round, with (dist, node) heap entries. The solver's
# faster rounds must return exactly this flow, tie for tie.
def reference_k_flow(net: FlowNetwork, weight_u: list[int]) -> list[int]:
    """Route net.k units from source to sink at minimum transformed cost
    and return the flow on each arc.

    Successive shortest paths with node potentials: net.k rounds of Dijkstra
    on reduced costs, one unit augmented per round. Initial potentials of
    zero are valid because every weight_U is non-negative. The all-c-arc
    chain keeps every node reachable in every round (c-arc flow is at most
    the number of finished rounds, which is below the capacity net.k), so a
    node left unreached, the sink included, is an InternalInvariantViolation.

    The residual graph lives in parallel lists: arc a is edge 2a forward and
    edge 2a+1 backward, and pushing a unit along edge e moves one unit of
    residual capacity from e to e ^ 1.
    """
    nodes = net.node_count
    sink = net.r
    to: list[int] = []
    cost: list[int] = []
    residual: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for a, ((tail, head, _), wu) in enumerate(zip(net.arcs, weight_u)):
        to += (head, tail)
        cost += (wu, -wu)
        residual += (net.k if a < net.r else 1, 0)
        adj[tail].append(2 * a)
        adj[head].append(2 * a + 1)
    phi = [0] * nodes

    for _ in range(net.k):
        dist: list[float] = [INF] * nodes
        dist[0] = 0
        parent = [-1] * nodes
        heap: list[tuple[float, int]] = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            base = d + phi[u]
            for e in adj[u]:
                if residual[e]:
                    v = to[e]
                    nd = base + cost[e] - phi[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = e
                        heapq.heappush(heap, (nd, v))
        for v in range(nodes):
            if dist[v] == INF:
                raise InternalInvariantViolation(f"node {v} unreachable during augmentation")
            phi[v] += int(dist[v])
        u = sink
        while u != 0:
            e = parent[u]
            residual[e] -= 1
            residual[e ^ 1] += 1
            u = to[e ^ 1]
    return residual[1::2]


# The decomposition by a cursor over a table of every arc, then a sort of
# each class by start time. extract_solution, which walks only the arcs
# that carry flow, must return exactly this solution and raise exactly
# these errors.
def reference_extract_solution(flow: list[int], net: FlowNetwork,
                               inst: IntervalInstance) -> KcolourSolution:
    """Decompose the flow into k source-to-sink paths and read the sessions
    off them: the i-arcs of each path form one colour class, sorted by start
    time; classes come out heaviest first. A c-arc carrying f units simply
    gets walked f times."""
    r = net.r
    out_arcs: list[list[int]] = [[] for _ in range(net.node_count)]
    for a, (tail, _, _) in enumerate(net.arcs):
        out_arcs[tail].append(a)
    remaining = list(flow)
    # cursor[u] skips u's used-up arcs for good, as remaining only falls
    cursor = [0] * net.node_count
    vertices = inst.vertices
    heads = net.head
    classes: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for _ in range(net.k):
        u = 0
        members: list[int] = []
        while u != r:
            arcs = out_arcs[u]
            i = cursor[u]
            while i < len(arcs) and remaining[arcs[i]] <= 0:
                i += 1
            if i == len(arcs):
                raise InternalInvariantViolation(f"flow conservation broken at node {u}")
            cursor[u] = i
            arc = arcs[i]
            remaining[arc] -= 1
            if arc >= r:
                members.append(arc - r)
            u = heads[arc]
        for vid in members:
            if vid in seen:
                raise InternalInvariantViolation(f"vertex {vid} selected twice")
            seen.add(vid)
        ordered = sorted(members, key=lambda vid: (vertices[vid].s, vertices[vid].f))
        for a, b in zip(ordered, ordered[1:]):
            # i-arcs along one path cannot overlap: the earlier arc's head is
            # at or before the later arc's tail, so their clique runs are
            # disjoint and so are the intervals
            if vertices[b].s < vertices[a].f:
                raise InternalInvariantViolation(
                    f"vertices {a} and {b} overlap inside one class")
        classes.append(tuple(ordered))
    if any(remaining):
        raise InternalInvariantViolation("flow not fully decomposed by k paths")
    total = sum(vertices[vid].w for vid in seen)

    def class_key(members: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        weight = sum(vertices[vid].w for vid in members)
        first = vertices[members[0]].s if members else 1 << 60
        return (-weight, first, members)

    classes.sort(key=class_key)
    return KcolourSolution(net.k, frozenset(seen), tuple(classes), total)


# The solve output as a payload dict for json.dumps(indent=2) and a table
# printed line by line, as they stood before the CLI wrote both in one walk:
# solve's stdout must be json.dumps(reference_solution_payload(...), indent=2)
# plus a newline, and its stderr table what reference_session_table prints.
def reference_solution_payload(sol: KcolourSolution, schedule: tuple[ProgrammeSlot, ...],
                                inst: IntervalInstance) -> dict:
    slot_by_id = {slot.title: slot for slot in schedule}
    assert inst.provenance is not None
    sessions = []
    for members in sol.classes:
        slots = []
        weight = 0
        for vid in members:
            slot = slot_by_id[inst.provenance[vid]]
            weight += slot.viewers
            slots.append({
                "slot_id": slot.title, "channel": slot.channel, "title": slot.title,
                "start": format_time(slot.start), "end": format_time(slot.end),
                "viewers": slot.viewers,
            })
        sessions.append({"weight": weight, "slots": slots})
    return {"k": sol.k, "total_weight": sol.total_weight, "sessions": sessions}


def reference_session_table(payload: dict) -> None:
    print(f"k={payload['k']} total_weight={payload['total_weight']}", file=sys.stderr)
    for i, session in enumerate(payload["sessions"], start=1):
        print(f"session {i} (weight {session['weight']}):", file=sys.stderr)
        for slot in session["slots"]:
            print(f"  {slot['start']}-{slot['end']}  {slot['channel']:<12} "
                  f"{slot['title']}  ({slot['viewers']})", file=sys.stderr)


def check_flow_rounds(net, weight_u) -> list[int]:
    """Run the solver for 1..net.k rounds; each round must add exactly the
    Bellman-Ford shortest path cost of the residual graph it started from.
    Round j runs on a copy of net with k = j: before round i <= j a c-arc
    carries at most i - 1 < j units, so the lower capacity closes no edge.
    Returns the net.k-round flow."""
    prev = [0] * len(net.arcs)
    for j in range(1, net.k + 1):
        flow = solve_min_cost_k_flow(net._replace(k=j), weight_u)
        step = flow_cost(weight_u, flow) - flow_cost(weight_u, prev)
        assert step == residual_bellman_ford(net, weight_u, prev)[net.r], f"round {j}"
        prev = flow
    return prev


def solve_checked(inst: IntervalInstance, k: int):
    """solve_mwkc, with every flow round of the same network checked
    against Bellman-Ford."""
    sol = solve_mwkc(inst, k)
    net = build_network(enumerate_maximal_cliques(inst), inst, k)
    weight_u = transform_weights(net, compute_pi(net))
    assert flow_cost(net.weight, check_flow_rounds(net, weight_u)) == sol.total_weight
    return sol


def per_component_total(inst: IntervalInstance, k: int) -> int:
    """Sum of checked solves of each connected component on its own; the
    global network bridges components with c-arcs, so it must match the
    global total."""
    total = 0
    for comp in connected_components(inst):
        sub = make_instance([(inst.s[vid], inst.f[vid], inst.w[vid]) for vid in comp])
        total += solve_checked(sub, k).total_weight
    return total
