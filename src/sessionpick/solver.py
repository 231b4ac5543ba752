"""Exact solver for maximum-weight k-colourable subgraphs of interval graphs.

The graph is never materialized. Two vertices are adjacent iff their open
intervals intersect, and interval graphs admit a linear order of their
maximal cliques in which each vertex's clique memberships form one
contiguous run, so a (p, q) index pair per vertex captures the whole
adjacency structure.

The clique order turns the problem into flow routing: nodes are the maximal
cliques plus a source in front, consecutive nodes are joined by zero-weight
c-arcs of capacity k, and every vertex contributes one i-arc of capacity 1
spanning its clique run and carrying its weight. A k-unit flow picks k
source-to-sink paths; the i-arcs on one path are pairwise non-overlapping
vertices, so the k paths are the k sessions, and maximizing picked weight
is a min-cost flow problem once arc weights are re-expressed against the
longest-path array pi (which makes every cost non-negative without changing
which flows are optimal).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from itertools import compress, islice, repeat
from operator import add, mul, neg
from typing import NamedTuple

from .schedule import IntervalInstance

INF = float("inf")


class EmptyInstance(ValueError):
    """The instance has no intervals, so there is no network to build."""


class InternalInvariantViolation(RuntimeError):
    """A structural guarantee of the construction failed; this is a bug,
    never a property of the input."""


class CliqueSequence(NamedTuple):
    """Maximal cliques C_1..C_r ordered by leading point.

    leading_points[i] is the largest member start of C_{i+1}, the leftmost
    coordinate where all its members coexist. Vertex v belongs to exactly
    the cliques C_p[v]..C_q[v], a 1-based run; the runs alone fix every
    clique. spans and cliques are views built on each read.
    """

    leading_points: tuple[int, ...]
    p: list[int]  # indexed by vertex id
    q: list[int]

    @property
    def r(self) -> int:
        return len(self.leading_points)

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Each vertex's (p, q) run, in vertex-id order."""
        return tuple(zip(self.p, self.q))

    @property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        """Sorted member ids of each clique, rebuilt from the runs."""
        members: list[list[int]] = [[] for _ in self.leading_points]
        for vid, (p, q) in enumerate(zip(self.p, self.q)):
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
    starts = sorted(inst.s)
    finishes = sorted(inst.f)
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
    return CliqueSequence(tuple(leading), list(map(p_at.__getitem__, inst.s)),
                          list(map(q_at.__getitem__, inst.f)))


class FlowNetwork(NamedTuple):
    """Nodes 0..r over the clique order; 0 is the source, r the sink.

    Arc a runs from tail[a] to head[a] with weight_N weight[a]. Arcs
    0..r-1 are the c-arcs i -> i+1 (capacity k, weight 0); arc r + v is
    vertex v's i-arc (capacity 1). arcs is a view built on each read.
    """

    r: int
    k: int
    tail: list[int]
    head: list[int]
    weight: list[int]

    @property
    def node_count(self) -> int:
        return self.r + 1

    @property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Each arc's (tail, head, weight_N), in arc-id order."""
        return tuple(zip(self.tail, self.head, self.weight))


class KcolourSolution(NamedTuple):
    k: int
    Q: frozenset[int]
    classes: tuple[tuple[int, ...], ...]  # k classes, vertices by start time
    total_weight: int


def build_network(cs: CliqueSequence, inst: IntervalInstance, k: int) -> FlowNetwork:
    """c-arcs first, then one i-arc per vertex in vertex-id order, so arc
    ids are reproducible."""
    if type(k) is not int:
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = cs.r
    if r == 0:
        raise EmptyInstance("no intervals, nothing to schedule")
    tail = list(range(r))
    tail += map(add, cs.p, repeat(-1))
    head = list(range(1, r + 1))
    head += cs.q
    return FlowNetwork(r, k, tail, head, [0] * r + inst.w)


def compute_pi(net: FlowNetwork) -> list[int]:
    """pi[i] = heaviest path weight from node i to the sink.

    Every arc goes forward, so taking the arcs by descending tail settles
    pi[head] before any arc into it is read. The start value 0 is never
    above the answer: each node i < r has the weight-0 c-arc to i + 1.
    Arcs of one tail may come in any order, as pi[tail] is their max.
    """
    tail, head, weight = net.tail, net.head, net.weight
    pi = [0] * net.node_count
    for a in sorted(range(len(tail)), key=tail.__getitem__, reverse=True):
        w = weight[a] + pi[head[a]]
        if w > pi[tail[a]]:
            pi[tail[a]] = w
    return pi


def transform_weights(net: FlowNetwork, pi: list[int]) -> list[int]:
    """Re-express arc weights as weight_U = pi[tail] - pi[head] - weight_N.

    Along any source-to-sink path the pi terms telescope, so path weight in
    the original network plus path cost here is always pi[0]; minimizing the
    transformed cost of a k-flow therefore maximizes the selected weight.
    Every weight_U is non-negative by definition of pi and at most pi[0].
    """
    weight_u = [pi[tail] - pi[head] - w for tail, head, w in zip(net.tail, net.head, net.weight)]
    if min(weight_u) < 0 or max(weight_u) > pi[0]:
        for a, wu in enumerate(weight_u):  # name the first offender
            if wu < 0 or wu > pi[0]:
                raise InternalInvariantViolation(
                    f"arc {a}: transformed weight {wu} outside [0, {pi[0]}]")
    return weight_u


def solve_min_cost_k_flow(net: FlowNetwork, weight_u: list[int]) -> list[int]:
    """Route net.k units from source to sink at minimum transformed cost
    and return the flow on each arc.

    Successive shortest paths, one unit augmented per round. The residual
    graph lives in parallel lists: arc a is edge 2a forward and edge 2a+1
    backward, and pushing a unit along edge e moves one unit of residual
    capacity from e to e ^ 1. live[u] holds u's edges with residual capacity
    in ascending id, the order in which a search scans them.

    Round 1 is one forward pass in node order, which is topological, over
    forward edges only, so it reads each edge's head and cost off the head
    column and weight_u. An arc whose head is not above its tail, which
    build_network never makes, would leave its distances inexact or its
    parents in a cycle, so a relaxation along one raises ValueError. So
    does a weight_u or a head column that is not one per arc, and an arc
    end past the sink, for which the arcs are scanned only once round 1
    indexes past a list.
    Round 1's augmenting path is Dijkstra's: the path costs 0 (pi is
    tight), so its nodes have distance 0; Dijkstra pops those in ascending
    index, and with a strict < both searches keep the first predecessor in
    index order, then its first edge in id order. At k = 1 that path is the
    flow. Otherwise the residual lists, which only the Dijkstra rounds
    read, are built before it is pushed.

    Later rounds run Dijkstra on reduced costs against the potentials phi,
    the previous round's true distances. The all-c-arc chain keeps every
    node reachable in every round (c-arc flow is at most the number of
    finished rounds, below the capacity net.k), so a node left unreached,
    the sink included, is an InternalInvariantViolation. A round's reduced
    distances take few distinct values, so the queue is a bucket per value
    (Dial's): buckets maps a level to the nodes pushed at it, and pending
    is a heap of those levels. A push of v at level t sets dist[v] - phi[v]
    to t, and each push lowers dist[v], so an entry is stale once dist[v] -
    phi[v] is below its level; entering a level drops its stale entries at
    once. The rest are popped from a heap in ascending node id.
    Reduced costs are non-negative and relaxations strict, so a push from
    level d lands at d or above and no level-d node goes stale while d is
    popped: a push at d joins the level's heap, a higher one its level's
    list. The pops thus run in ascending (reduced distance, node), with the
    same entries skipped, exactly as from one heap of such pairs.

    Once two rounds in a row take the all-c-arc chain, the rest would
    repeat it, so their units go onto the c-arcs at once: the second chain
    round changes no live list (every c-arc already carries flow) and no
    phi (the edges the first made live reverse tight edges), so the next
    search repeats it.
    """
    nodes = net.node_count
    tail, head = net.tail, net.head
    m = len(tail)
    if not net.r <= m == len(weight_u):
        raise ValueError(f"len(net.arcs) = {m} and len(weight_u) = {len(weight_u)} "
                         f"must be equal and at least r = {net.r}")
    if len(head) != m:
        raise ValueError(f"len(net.head) = {len(head)}, not len(net.tail) = {m}")
    chain = list(range(0, 2 * net.r, 2))  # forward c-edges; parent[1:] on the chain path
    live = [[e] for e in chain] + [[]]  # c-arc u leaves node u; round 1 adds the i-arcs
    repeats = 0  # chain rounds in a row

    for rnd in range(net.k):
        dist: list[float] = [INF] * nodes
        dist[0] = 0
        parent = [-1] * nodes
        if not rnd:
            try:
                for e, u in zip(range(2 * net.r, 2 * m, 2), islice(tail, net.r, None)):
                    live[u].append(e)
                for u, edges in enumerate(live):
                    base = dist[u]
                    for e in edges:
                        a = e >> 1
                        v = head[a]
                        t = base + weight_u[a]
                        if t < dist[v]:
                            if v <= u:
                                raise ValueError(f"arc {a} runs from node {u} to node {v}, "
                                                 "not forward")
                            dist[v] = t
                            parent[v] = e
            except IndexError:  # an arc end past the sink: name the first
                for a, (u, v) in enumerate(zip(tail, head)):
                    if not (0 <= u <= net.r and 0 <= v <= net.r):
                        raise ValueError(f"arc {a} runs from node {u} to node {v}, "
                                         f"outside nodes 0..{net.r}") from None
                raise
        else:
            buckets = {0: [0]}  # level -> nodes pushed at it
            pending = [0]  # heap of the levels in buckets
            while pending:
                d = heappop(pending)
                heap = [v for v in buckets.pop(d) if dist[v] - phi[v] == d]
                heapify(heap)
                while heap:
                    u = heappop(heap)
                    base = dist[u]
                    for e in live[u]:
                        v = to[e]
                        t = base + cost[e]
                        if t < dist[v]:
                            dist[v] = t
                            parent[v] = e
                            t -= phi[v]
                            if t == d:
                                heappush(heap, v)
                            elif t in buckets:
                                buckets[t].append(v)
                            else:
                                buckets[t] = [v]
                                heappush(pending, t)
        if INF in dist:
            raise InternalInvariantViolation(
                f"node {dist.index(INF)} unreachable during augmentation")
        if not rnd:  # only the Dijkstra rounds read the residual graph
            if net.k == 1:  # so none is built, and the flow is round 1's path
                flow = [0] * m
                u = net.r
                while u:
                    a = parent[u] >> 1
                    flow[a] = 1
                    u = tail[a]
                return flow
            to = [0] * (2 * m)
            to[0::2] = head
            to[1::2] = tail
            cost = [0] * len(to)
            cost[0::2] = weight_u
            cost[1::2] = map(neg, weight_u)
            residual = [net.k, 0] * net.r + [1, 0] * (m - net.r)
        phi = dist
        u = net.r
        while u:
            e = parent[u]
            u = to[e ^ 1]
            residual[e] -= 1
            if not residual[e]:
                live[u].remove(e)
            residual[e ^ 1] += 1
            if residual[e ^ 1] == 1:
                insort(live[to[e]], e ^ 1)
        repeats = repeats + 1 if parent[1:] == chain else 0
        if repeats == 2:  # the search would repeat itself: see the docstring
            rest = net.k - rnd - 1
            for e in chain:
                residual[e] -= rest
                residual[e + 1] += rest
            break
    return residual[1::2]


def extract_solution(flow: list[int], net: FlowNetwork,
                     inst: IntervalInstance) -> KcolourSolution:
    """Decompose the flow into k source-to-sink paths and read the sessions
    off them: the i-arcs of each path form one colour class, heaviest class
    first. At node u a path takes c-arc u while it has units left, else the
    lowest-id i-arc out of u with units left, which is the first arc out of
    u in id order that carries flow, so the first min(flow[:r]) paths select
    nothing; they are counted, not walked, and their classes go last. Each
    i-arc on a path leaves at or after the previous one's head, so the two
    vertices share no clique and the later one starts after the earlier one
    ends: no class needs a sort."""
    r = net.r
    empty = max(0, min([net.k, *flow[:r]]))  # clamped, so a broken flow still fails below
    idle = [f - empty for f in flow[:r]]  # units left on c-arc u, which runs u -> u + 1
    # carried[u]: the i-arcs out of u, in id order, once per unit of flow
    carried: list[list[int]] = [[] for _ in range(r)]
    for a in compress(range(r, len(flow)), islice(flow, r, None)):
        carried[net.tail[a]] += [a] * flow[a]
    s, f, w = inst.s, inst.f, inst.w
    keyed: list[tuple[int, int, tuple[int, ...]]] = []  # (-weight, first start, class)
    seen: set[int] = set()
    for _ in range(net.k - empty):
        u = weight = 0
        members: list[int] = []
        while u != r:
            if idle[u] > 0:
                idle[u] -= 1
                u += 1
            elif carried[u]:
                a = carried[u].pop(0)
                members.append(a - r)
                weight += w[a - r]
                u = net.head[a]
            else:
                raise InternalInvariantViolation(f"flow conservation broken at node {u}")
        for vid in members:
            if vid in seen:
                raise InternalInvariantViolation(f"vertex {vid} selected twice")
            seen.add(vid)
        for a, b in zip(members, members[1:]):
            if s[b] < f[a]:
                raise InternalInvariantViolation(
                    f"vertices {a} and {b} overlap inside one class")
        keyed.append((-weight, s[members[0]], tuple(members)))
    if any(idle) or any(carried) or min(flow) < 0:
        raise InternalInvariantViolation("flow not fully decomposed by k paths")
    keyed.sort()
    classes = tuple(c for _, _, c in keyed) + ((),) * empty
    return KcolourSolution(net.k, frozenset(seen), classes, -sum(w for w, _, _ in keyed))


def solve_mwkc(inst: IntervalInstance, k: int) -> KcolourSolution:
    """Full pipeline: cliques, network, pi, transform, k-flow, extraction.

    Every feasible k-flow meets total == k*pi[0] - cost_U, so that check is
    bookkeeping. At k = 1 the flow is also proven optimal: every weight_U
    is non-negative and pi[r] == 0, so no path weighs more than pi[0], and
    a path that costs 0 weighs exactly that.
    """
    net = build_network(enumerate_maximal_cliques(inst), inst, k)
    pi = compute_pi(net)
    weight_u = transform_weights(net, pi)
    pi0 = pi[0]
    del pi  # only pi[0] is read again
    flow = solve_min_cost_k_flow(net, weight_u)
    sol = extract_solution(flow, net, inst)
    cost_u = sum(map(mul, weight_u, flow))
    if sol.total_weight != k * pi0 - cost_u:
        raise InternalInvariantViolation(
            f"selected weight {sol.total_weight} != k*pi[0] - cost "
            f"({k}*{pi0} - {cost_u})")
    if k == 1 and cost_u:
        raise InternalInvariantViolation(f"k = 1 flow costs {cost_u}, not 0: not optimal")
    return sol
