"""Randomized structural checks for the whole pipeline."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessionpick import (
    InternalInvariantViolation,
    IntervalInstance,
    brute_force_mwkc,
    build_network,
    compute_pi,
    connected_components,
    enumerate_maximal_cliques,
    extract_solution,
    overlaps,
    solve_min_cost_k_flow,
    solve_mwkc,
    transform_weights,
    verify_solution,
)

from conftest import (check_flow_rounds, flow_cost, make_instance, max_depth,
                      per_component_total, reference_build_network, reference_clique_sequence,
                      reference_extract_solution, reference_k_flow, solve_checked)


@st.composite
def instances(draw, max_n=12, max_coord=30, weights=st.integers(min_value=0, max_value=9)):
    n = draw(st.integers(min_value=1, max_value=max_n))
    triples = []
    for _ in range(n):
        s = draw(st.integers(min_value=0, max_value=max_coord - 1))
        f = draw(st.integers(min_value=s + 1, max_value=max_coord))
        triples.append((s, f, draw(weights)))
    return make_instance(triples)


# few coordinates and few distinct weights: many equal-cost paths, so the
# flow depends on every tie rule of the search
tie_heavy = st.sampled_from((26, 60)).flatmap(
    lambda max_coord: instances(max_n=40, max_coord=max_coord,
                                weights=st.sampled_from((0, 1, 2, 3, 5))))


ks = st.integers(min_value=1, max_value=4)


@settings(max_examples=150, deadline=None)
@given(inst=instances())
def test_adjacency_equals_span_intersection(inst):
    cs = enumerate_maximal_cliques(inst)
    vertices = inst.vertices
    for u in vertices:
        for v in vertices:
            if u.vertex_id >= v.vertex_id:
                continue
            pu, qu = cs.p[u.vertex_id], cs.q[u.vertex_id]
            pv, qv = cs.p[v.vertex_id], cs.q[v.vertex_id]
            spans_meet = pu <= qv and pv <= qu
            assert overlaps(u, v) == overlaps(v, u) == spans_meet


@settings(max_examples=300, deadline=None)
@given(inst=st.one_of(instances(), tie_heavy), shift=st.sampled_from((0, -2 ** 61, 2 ** 61)))
def test_sweep_equals_reference(inst, shift):
    # spans read off the sweep equal the two bisects per vertex, also far
    # from 0 where coordinates no longer fit a machine word
    inst = make_instance([(v.s + shift, v.f + shift, v.w) for v in inst.vertices])
    assert enumerate_maximal_cliques(inst) == reference_clique_sequence(inst)


@settings(max_examples=200, deadline=None)
@given(inst=st.one_of(instances(), tie_heavy), k=ks, data=st.data())
def test_views_equal_the_tuples_they_replace(inst, k, data):
    # the instance, the sweep and the network keep int columns; their views
    # give back exactly the records, span pairs and arc triples they held
    given = data.draw(st.permutations(inst.vertices))
    rebuilt = IntervalInstance(tuple(given))
    assert rebuilt.vertices == tuple(sorted(given)) == inst.vertices  # by vertex id
    assert (rebuilt.s, rebuilt.f, rebuilt.w) == (inst.s, inst.f, inst.w)
    cs = enumerate_maximal_cliques(inst)
    assert cs.spans == reference_clique_sequence(inst).spans
    assert build_network(cs, inst, k).arcs == reference_build_network(cs, inst, k)


@settings(max_examples=150, deadline=None)
@given(inst=instances())
def test_clique_sequence_shape(inst):
    cs = enumerate_maximal_cliques(inst)
    assert 1 <= cs.r <= inst.n
    # no clique contains another; consecutive cliques differ
    sets = [set(c) for c in cs.cliques]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert i == j or not a <= b
    # every vertex appears in a contiguous run matching its span
    for vid, (p, q) in enumerate(cs.spans):
        member_of = [i + 1 for i, c in enumerate(sets) if vid in c]
        assert member_of == list(range(p, q + 1))
    assert list(cs.leading_points) == sorted(set(cs.leading_points))


@settings(max_examples=150, deadline=None)
@given(inst=instances())
def test_omega_is_max_point_depth(inst):
    cs = enumerate_maximal_cliques(inst)
    assert max(map(len, cs.cliques)) == max_depth(inst)


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_components_split_cleanly(inst):
    comps = connected_components(inst)
    seen = [vid for comp in comps for vid in comp]
    assert sorted(seen) == list(range(inst.n))
    where = {vid: i for i, comp in enumerate(comps) for vid in comp}
    vertices = inst.vertices
    for u in vertices:
        for v in vertices:
            if u.vertex_id < v.vertex_id and overlaps(u, v):
                assert where[u.vertex_id] == where[v.vertex_id]
    # components in time order, each in (start, vertex_id) order
    for comp in comps:
        assert comp == sorted(comp, key=lambda vid: (inst.s[vid], vid))
    for left, right in zip(comps, comps[1:]):
        assert max(inst.f[v] for v in left) <= inst.s[right[0]]
    # within a component every vertex is reachable through overlaps
    for comp in comps:
        reached = {comp[0]}
        frontier = [comp[0]]
        while frontier:
            cur = vertices[frontier.pop()]
            for vid in comp:
                if vid not in reached and overlaps(cur, vertices[vid]):
                    reached.add(vid)
                    frontier.append(vid)
        assert reached == set(comp)


@settings(max_examples=100, deadline=None)
@given(inst=instances(), k=ks)
def test_flow_costs_telescope(inst, k):
    cs = enumerate_maximal_cliques(inst)
    net = build_network(cs, inst, k)
    pi = compute_pi(net)
    weight_u = transform_weights(net, pi)
    assert all(0 <= wu <= pi[0] for wu in weight_u)
    flow = check_flow_rounds(net, weight_u)
    weight_n = flow_cost(net.weight, flow)
    assert weight_n + flow_cost(weight_u, flow) == k * pi[0]
    balance = [0] * net.node_count
    for a, ((tail, head, _), f) in enumerate(zip(net.arcs, flow)):
        assert 0 <= f <= (k if a < net.r else 1)
        balance[tail] += f
        balance[head] -= f
    assert balance[0] == k and balance[-1] == -k
    assert all(b == 0 for b in balance[1:-1])


# round 2 cancels the i-arc round 1 took, so k = 2 reads the residual
# graph built after round 1, and k = 1 returns round 1's path without it
_CANCELLED = make_instance([(0, 3, 5), (4, 7, 5), (4, 5, 4), (1, 5, 6), (6, 8, 6)])


@settings(max_examples=300, deadline=None)
@given(inst=st.one_of(
           tie_heavy,
           # weights far apart: many sparse levels per round
           instances(max_n=40, max_coord=60, weights=st.integers(min_value=0, max_value=10**6)),
           # all weights 0: every node on level 0
           instances(max_n=40, max_coord=26, weights=st.just(0))),
       k=st.integers(min_value=1, max_value=12))
@example(inst=_CANCELLED, k=1)
@example(inst=_CANCELLED, k=2)
def test_flow_equals_reference_on_ties(inst, k):
    # not just an equal cost: the same optimum, arc for arc
    net = build_network(enumerate_maximal_cliques(inst), inst, k)
    weight_u = transform_weights(net, compute_pi(net))
    assert solve_min_cost_k_flow(net, weight_u) == reference_k_flow(net, weight_u)


@settings(max_examples=300, deadline=None)
@given(inst=tie_heavy, k=st.integers(min_value=1, max_value=12))
def test_extraction_equals_reference_on_ties(inst, k):
    # the same classes in the same order, not just the same total
    net = build_network(enumerate_maximal_cliques(inst), inst, k)
    flow = solve_min_cost_k_flow(net, transform_weights(net, compute_pi(net)))
    sol = extract_solution(flow, net, inst)
    assert sol == reference_extract_solution(flow, net, inst)
    # walk order is start order, which is why no class needs a sort
    for cls in sol.classes:
        starts = [inst.s[v] for v in cls]
        assert all(a < b for a, b in zip(starts, starts[1:]))


def _extract_outcome(extract, flow, net, inst):
    try:
        return extract(flow, net, inst)
    except InternalInvariantViolation as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(inst=tie_heavy, k=st.integers(min_value=1, max_value=12), data=st.data())
def test_extraction_rejects_corrupted_flow_like_reference(inst, k, data):
    # a few arcs set to a wrong unit count, negative included: the same
    # check fails first, with the same message
    net = build_network(enumerate_maximal_cliques(inst), inst, k)
    flow = solve_min_cost_k_flow(net, transform_weights(net, compute_pi(net)))
    changes = data.draw(st.dictionaries(st.integers(min_value=0, max_value=len(flow) - 1),
                                        st.integers(min_value=-1, max_value=k + 1),
                                        max_size=3))
    for arc, units in changes.items():
        flow[arc] = units
    assert (_extract_outcome(extract_solution, flow, net, inst)
            == _extract_outcome(reference_extract_solution, flow, net, inst))


@settings(max_examples=150, deadline=None)
@given(inst=tie_heavy, data=st.data())
def test_flow_and_extraction_past_omega_equal_reference(inst, data):
    # at and past omega the flow stops once two rounds in a row take the
    # clique-arc chain, and extraction counts the sessions that select nothing
    omega = max_depth(inst)
    k = omega + data.draw(st.integers(min_value=0, max_value=2 * omega + 3))
    net = build_network(enumerate_maximal_cliques(inst), inst, k)
    weight_u = transform_weights(net, compute_pi(net))
    flow = solve_min_cost_k_flow(net, weight_u)
    assert flow == reference_k_flow(net, weight_u)
    assert extract_solution(flow, net, inst) == reference_extract_solution(flow, net, inst)
    changes = data.draw(st.dictionaries(st.integers(min_value=0, max_value=len(flow) - 1),
                                        st.integers(min_value=-1, max_value=k + 1),
                                        max_size=3))
    for arc, units in changes.items():
        flow[arc] = units
    assert (_extract_outcome(extract_solution, flow, net, inst)
            == _extract_outcome(reference_extract_solution, flow, net, inst))


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_pi_is_tight(inst):
    # pi[i] is the best out-arc of node i, not merely an upper bound on each
    net = build_network(enumerate_maximal_cliques(inst), inst, 1)
    pi = compute_pi(net)
    arcs = net.arcs
    for i in range(net.r):
        assert pi[i] == max(w + pi[head] for tail, head, w in arcs if tail == i)
    assert pi[net.r] == 0


@settings(max_examples=100, deadline=None)
@given(inst=instances(), k=ks)
def test_solver_matches_exhaustive_search(inst, k):
    sol = solve_checked(inst, k)
    assert sol.total_weight == per_component_total(inst, k)
    assert sol.total_weight == brute_force_mwkc(inst, k).best_weight
    assert not verify_solution(sol, inst, k).violations


@settings(max_examples=100, deadline=None)
@given(inst=instances(), k=ks, data=st.data())
def test_instance_from_shuffled_vertices_solves_alike(inst, k, data):
    # IntervalInstance keeps vertex i at position i whatever order it is
    # given, which lets brute_force_mwkc index its vertices by id
    shuffled = IntervalInstance(tuple(data.draw(st.permutations(inst.vertices))))
    best = brute_force_mwkc(inst, k)
    assert brute_force_mwkc(shuffled, k) == best
    sol = solve_mwkc(shuffled, k)
    report = verify_solution(sol, shuffled, k)
    assert not report.violations
    assert report.total_weight == sol.total_weight == best.best_weight


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_k1_weight_is_longest_path(inst):
    cs = enumerate_maximal_cliques(inst)
    net = build_network(cs, inst, 1)
    assert solve_mwkc(inst, 1).total_weight == compute_pi(net)[0]


@settings(max_examples=75, deadline=None)
@given(inst=instances())
def test_weights_grow_with_k_until_omega(inst):
    omega = max_depth(inst)
    totals = [solve_mwkc(inst, k).total_weight for k in range(1, omega + 2)]
    assert totals == sorted(totals)
    assert totals[-1] == totals[-2] == inst.total_weight  # k >= omega takes everything


@settings(max_examples=100, deadline=None)
@given(inst=instances(), k=ks)
def test_selection_never_exceeds_depth_k(inst, k):
    sol = solve_mwkc(inst, k)
    assert max_depth(inst, sol.Q) <= k
    assert sol.total_weight == sum(inst.w[v] for v in sol.Q)
