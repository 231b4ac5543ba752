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
from heapq import heappop, heappush
from itertools import compress, islice, repeat
from operator import itemgetter, mul, neg
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


class FlowNetwork(NamedTuple):
    """Nodes 0..r over the clique order; 0 is the source, r the sink.

    arcs[a] is (tail, head, weight_N). Arcs 0..r-1 are the c-arcs i -> i+1
    (capacity k, weight 0); arc r + v is vertex v's i-arc (capacity 1).
    """

    r: int
    k: int
    arcs: tuple[tuple[int, int, int], ...]

    @property
    def node_count(self) -> int:
        return self.r + 1


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
    arcs = [(i, i + 1, 0) for i in range(r)]
    arcs += [(p - 1, q, v.w) for (p, q), v in zip(cs.spans, inst.vertices)]
    return FlowNetwork(r, k, tuple(arcs))


def compute_pi(net: FlowNetwork) -> list[int]:
    """pi[i] = heaviest path weight from node i to the sink.

    Every arc goes forward, so taking the arcs by descending tail settles
    pi[head] before any arc into it is read. The start value 0 is never
    above the answer: each node i < r has the weight-0 c-arc to i + 1.
    Arcs of one tail may come in any order, as pi[tail] is their max.
    """
    pi = [0] * net.node_count
    for tail, head, w in sorted(net.arcs, key=itemgetter(0), reverse=True):
        if w + pi[head] > pi[tail]:
            pi[tail] = w + pi[head]
    return pi


def transform_weights(net: FlowNetwork, pi: list[int]) -> list[int]:
    """Re-express arc weights as weight_U = pi[tail] - pi[head] - weight_N.

    Along any source-to-sink path the pi terms telescope, so path weight in
    the original network plus path cost here is always pi[0]; minimizing the
    transformed cost of a k-flow therefore maximizes the selected weight.
    Every weight_U is non-negative by definition of pi and at most pi[0].
    """
    weight_u = [pi[tail] - pi[head] - w for tail, head, w in net.arcs]
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
    forward edges only, so it reads each edge's head and cost off its arc
    and weight_u. Its augmenting path is Dijkstra's: the path costs 0
    (pi is tight), so its nodes have distance 0; Dijkstra pops those in
    ascending index, and with a strict < both searches keep the first
    predecessor in index order, then its first edge in id order. At k = 1
    that path is the flow. Otherwise the residual lists, which only the
    Dijkstra rounds read, are built before it is pushed. Later rounds run
    Dijkstra on reduced costs against the potentials phi, the previous
    round's true distances. Heap keys reduced_dist * nodes + v
    order like (reduced_dist, v); a key that is not the last one pushed for
    its node is stale, as every push strictly lowers dist[v]. The all-c-arc
    chain keeps every node reachable in every round (c-arc flow is at most
    the number of finished rounds, below the capacity net.k), so a node
    left unreached, the sink included, is an InternalInvariantViolation.

    Once two rounds in a row take that chain, the rest would repeat it, so
    their units go onto the c-arcs at once: the second chain round changes
    no live list (every c-arc already carries flow) and no phi (the edges
    the first made live reverse tight edges), so the next search repeats it.
    """
    nodes = net.node_count
    arcs = net.arcs
    chain = list(range(0, 2 * net.r, 2))  # forward c-edges; parent[1:] on the chain path
    live = [[e] for e in chain] + [[]]  # c-arc u leaves node u, then i-arcs in id order
    tails = map(itemgetter(0), islice(arcs, net.r, None))
    for e, tail in zip(range(2 * net.r, 2 * len(arcs), 2), tails):
        live[tail].append(e)
    repeats = 0  # chain rounds in a row

    for rnd in range(net.k):
        dist: list[float] = [INF] * nodes
        dist[0] = 0
        parent = [-1] * nodes
        if not rnd:
            for u, edges in enumerate(live):
                base = dist[u]
                for e in edges:
                    a = e >> 1
                    v = arcs[a][1]
                    t = base + weight_u[a]
                    if t < dist[v]:
                        dist[v] = t
                        parent[v] = e
        else:
            last = [0] * nodes
            heap = [0]
            while heap:
                key = heappop(heap)
                u = key % nodes
                if key != last[u]:
                    continue
                base = dist[u]
                for e in live[u]:
                    v = to[e]
                    t = base + cost[e]
                    if t < dist[v]:
                        dist[v] = t
                        parent[v] = e
                        key = (t - phi[v]) * nodes + v
                        last[v] = key
                        heappush(heap, key)
        if INF in dist:
            raise InternalInvariantViolation(
                f"node {dist.index(INF)} unreachable during augmentation")
        if not rnd:  # only the Dijkstra rounds read the residual graph
            if net.k == 1:  # so none is built, and the flow is round 1's path
                flow = [0] * len(arcs)
                u = net.r
                while u:
                    a = parent[u] >> 1
                    flow[a] = 1
                    u = arcs[a][0]
                return flow
            to = [0] * (2 * len(arcs))
            to[0::2] = map(itemgetter(1), arcs)
            to[1::2] = map(itemgetter(0), arcs)
            cost = [0] * len(to)
            cost[0::2] = weight_u
            cost[1::2] = map(neg, weight_u)
            residual = [net.k, 0] * net.r + [1, 0] * (len(arcs) - net.r)
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
        carried[net.arcs[a][0]] += [a] * flow[a]
    vertices = inst.vertices
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
                weight += vertices[a - r].w
                u = net.arcs[a][1]
            else:
                raise InternalInvariantViolation(f"flow conservation broken at node {u}")
        for vid in members:
            if vid in seen:
                raise InternalInvariantViolation(f"vertex {vid} selected twice")
            seen.add(vid)
        for a, b in zip(members, members[1:]):
            if vertices[b].s < vertices[a].f:
                raise InternalInvariantViolation(
                    f"vertices {a} and {b} overlap inside one class")
        keyed.append((-weight, vertices[members[0]].s, tuple(members)))
    if any(idle) or any(carried) or min(flow) < 0:
        raise InternalInvariantViolation("flow not fully decomposed by k paths")
    keyed.sort()
    classes = tuple(c for _, _, c in keyed) + ((),) * empty
    return KcolourSolution(net.k, frozenset(seen), classes, -sum(w for w, _, _ in keyed))


def solve_mwkc(inst: IntervalInstance, k: int) -> KcolourSolution:
    """Full pipeline: cliques, network, pi, transform, k-flow, extraction."""
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
    return sol
