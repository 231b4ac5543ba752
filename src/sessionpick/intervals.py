"""Interval graph structure: maximal cliques, spans, components.

The graph is never materialized. Two vertices are adjacent iff their open
intervals intersect, and everything downstream works off the linearly
ordered maximal cliques that interval graphs admit: each vertex's clique
memberships form one contiguous run, so a (p, q) index pair per vertex
captures the whole adjacency structure.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import NamedTuple

from .schedule import IntervalInstance, Vertex

def overlaps(a: Vertex, b: Vertex) -> bool:
    """Open-interval intersection: endpoints may touch without overlapping."""
    return a.s < b.f and b.s < a.f


class CliqueSequence(NamedTuple):
    """Maximal cliques C_1..C_r ordered by leading point.

    leading_points[i] is the largest member start of C_{i+1}, the leftmost
    coordinate where all its members coexist. spans[v] is vertex v's 1-based
    (p, q) run of clique indices; the runs alone fix every clique.
    """

    leading_points: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]  # indexed by vertex id

    @property
    def r(self) -> int:
        return len(self.leading_points)

    @property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        """Sorted member ids of each clique, rebuilt from the spans."""
        members: list[list[int]] = [[] for _ in self.leading_points]
        for vid, (p, q) in enumerate(self.spans):
            for i in range(p - 1, q):
                members[i].append(vid)
        return tuple(tuple(m) for m in members)


def enumerate_maximal_cliques(inst: IntervalInstance) -> CliqueSequence:
    """Sweep the endpoints once, recording a clique at every first finish
    after at least one start.

    At such a finish with coordinate t, the active set is exactly
    {u : s_u < t <= f_u}, which is a maximal clique, and the trigger
    coordinates strictly increase. Only coordinates are swept: a finish at
    t sees the starts below t, since touching intervals do not overlap.

    The spans come off the same sweep. p is the first trigger above s, and
    a start is swept by exactly that trigger: it lies below it and not
    below the one before. q is the last trigger at or below f, which is
    the trigger count once f has been read, because a finish that ties a
    trigger adds no trigger of its own. Equal coordinates share their p and
    their q, so one dict per endpoint kind maps them back to vertex order.
    """
    s_col = [v.s for v in inst.vertices]
    f_col = [v.f for v in inst.vertices]
    starts = sorted(s_col)
    finishes = sorted(f_col)
    leading: list[int] = []
    p_of: list[int] = []  # p of each swept start, in start order
    q_of: list[int] = []  # q of each finish, in finish order
    seen = 0  # starts already behind the sweep
    for f in finishes:
        below = bisect_left(starts, f, seen)
        if below > seen:
            leading.append(starts[below - 1])
            p_of += repeat(len(leading), below - seen)
            seen = below
        q_of.append(len(leading))
    p_at = dict(zip(starts, p_of))
    q_at = dict(zip(finishes, q_of))
    spans = tuple(zip(map(p_at.__getitem__, s_col), map(q_at.__getitem__, f_col)))
    return CliqueSequence(tuple(leading), spans)


def connected_components(inst: IntervalInstance) -> list[list[int]]:
    """Vertex ids grouped by overlap connectivity, in time order.

    Components occupy disjoint stretches of the line, so in (start, id)
    order a vertex opens a new one when it starts at or after the furthest
    finish seen so far (touching does not overlap).
    """
    comps: list[list[int]] = []
    reach = 0
    for v in sorted(inst.vertices, key=lambda v: v.s):  # stable: ties keep id order
        if comps and v.s < reach:
            comps[-1].append(v.vertex_id)
            reach = max(reach, v.f)
        else:
            comps.append([v.vertex_id])
            reach = v.f
    return comps
