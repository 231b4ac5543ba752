"""Independent ground truth: exhaustive search and solution checking.

Deliberately shares nothing with the flow solver. Feasibility of a chosen
subset is tested through depth alone: a set of intervals splits into k
non-overlapping sessions exactly when no point of the line lies strictly
inside more than k of them, so the search never needs to construct a
colouring.
"""

from __future__ import annotations

from typing import NamedTuple

from .schedule import IntervalInstance, Vertex

COMPONENT_LIMIT = 20  # the most intervals one component may hold for the search


class InstanceTooLarge(ValueError):
    """The exhaustive search refuses components above COMPONENT_LIMIT."""


class OracleResult(NamedTuple):
    best_weight: int
    best_subset: frozenset[int]
    nodes_explored: int


class CheckReport(NamedTuple):
    violations: tuple[str, ...]
    class_weights: tuple[int, ...]
    total_weight: int


def overlaps(a: Vertex, b: Vertex) -> bool:
    """Open-interval intersection: endpoints may touch without overlapping."""
    return a.s < b.f and b.s < a.f


def connected_components(inst: IntervalInstance) -> list[list[int]]:
    """Vertex ids grouped by overlap connectivity, in time order.

    Components occupy disjoint stretches of the line, so in (start, id)
    order a vertex opens a new one when it starts at or after the furthest
    finish seen so far (touching does not overlap).
    """
    s, f = inst.s, inst.f
    comps: list[list[int]] = []
    reach = 0
    for vid in sorted(range(inst.n), key=s.__getitem__):  # stable: ties keep id order
        if comps and s[vid] < reach:
            comps[-1].append(vid)
            reach = max(reach, f[vid])
        else:
            comps.append([vid])
            reach = f[vid]
    return comps


def _search_component(vertices: list[Vertex], k: int) -> tuple[int, list[int], int]:
    """Include/exclude search over vertices sorted by start.

    Including a vertex is allowed only while at most k-1 already chosen
    intervals are still open at its start; because vertices arrive in start
    order, that single check bounds the depth everywhere. Branches whose
    remaining weight cannot beat the incumbent are cut.
    """
    vs = sorted(vertices, key=lambda v: (v.s, v.f, v.vertex_id))
    n = len(vs)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vs[i].w
    best_weight = -1
    best: list[int] = []
    chosen: list[Vertex] = []
    explored = 0

    def recurse(i: int, weight: int) -> None:
        nonlocal best_weight, best, explored
        explored += 1
        if weight + suffix[i] <= best_weight:
            return
        if i == n:
            best_weight = weight
            best = [v.vertex_id for v in chosen]
            return
        v = vs[i]
        open_here = sum(1 for c in chosen if c.f > v.s)
        if open_here < k:
            chosen.append(v)
            recurse(i + 1, weight + v.w)
            chosen.pop()
        recurse(i + 1, weight)

    recurse(0, 0)
    return best_weight, best, explored


def brute_force_mwkc(inst: IntervalInstance, k: int) -> OracleResult:
    """Exact optimum by exhaustive search, component by component.

    Optima add across components, so COMPONENT_LIMIT guards each component
    rather than the whole instance.
    """
    if type(k) is not int:
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = 0
    subset: set[int] = set()
    explored = 0
    for comp in connected_components(inst):
        if len(comp) > COMPONENT_LIMIT:
            raise InstanceTooLarge(f"component with {len(comp)} intervals exceeds "
                                   f"the search limit {COMPONENT_LIMIT}")
        weight, ids, nodes = _search_component(
            [Vertex(vid, inst.s[vid], inst.f[vid], inst.w[vid]) for vid in comp], k)
        total += weight
        subset.update(ids)
        explored += nodes
    return OracleResult(total, frozenset(subset), explored)


def verify_solution(sol, inst: IntervalInstance, k: int) -> CheckReport:
    """Check a claimed solution from first principles.

    Verifies class count, vertex validity, disjointness, independence of
    every class, and the weight bookkeeping. Never raises; everything wrong
    lands in the report, which names a vertex by its slot id when the
    instance has provenance.
    """
    slot_of = inst.provenance
    one, two = ("vertex", "vertices") if slot_of is None else ("slot", "slots")
    label = str if slot_of is None else lambda vid: repr(slot_of[vid])
    violations: list[str] = []
    s, f, w = inst.s, inst.f, inst.w
    n = inst.n
    if len(sol.classes) > k:
        violations.append(f"{len(sol.classes)} classes but k={k}")
    seen: dict[int, int] = {}
    class_weights: list[int] = []
    for ci, members in enumerate(sol.classes, start=1):
        weight = 0
        known = []
        for vid in members:
            if not (isinstance(vid, int) and 0 <= vid < n):
                violations.append(f"class {ci}: unknown vertex {vid}")
                continue
            if vid in seen:
                violations.append(f"{one} {label(vid)} appears in classes {seen[vid]} and {ci}")
            seen[vid] = ci
            weight += w[vid]
            known.append(vid)
        # intervals sorted by start are pairwise disjoint iff each is
        # disjoint from its successor
        known.sort(key=f.__getitem__)
        known.sort(key=s.__getitem__)  # stable: by (s, f)
        for a, b in zip(known, known[1:]):
            if s[a] < f[b] and s[b] < f[a]:  # the overlap rule
                violations.append(f"class {ci}: {two} {label(a)} and {label(b)} overlap")
        class_weights.append(weight)
    union = set(seen)
    if set(sol.Q) != union:
        violations.append("Q does not equal the union of the classes")
    recomputed = sum(map(w.__getitem__, union))
    if sol.total_weight != recomputed:
        violations.append(
            f"claimed total weight {sol.total_weight}, classes sum to {recomputed}")
    return CheckReport(tuple(violations), tuple(class_weights), recomputed)
