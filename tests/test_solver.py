import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sessionpick import (
    EmptyInstance,
    FlowNetwork,
    InternalInvariantViolation,
    brute_force_mwkc,
    build_network,
    compute_pi,
    enumerate_maximal_cliques,
    extract_solution,
    parse_schedule,
    solve_min_cost_k_flow,
    solve_mwkc,
    to_intervals,
    transform_weights,
    verify_solution,
)

from conftest import (
    DEMO10_FLOW_K2,
    DEMO10_PI,
    DEMO10_SPANS,
    DEMO10_WEIGHT_U,
    check_flow_rounds,
    flow_cost,
    make_instance,
    per_component_total,
    reference_k_flow,
    solve_checked,
)


def _network(inst, k):
    cs = enumerate_maximal_cliques(inst)
    return build_network(cs, inst, k)


def _hand_built(r, k, arcs):
    """A FlowNetwork from (tail, head, weight_N) triples, one column each."""
    return FlowNetwork(r, k, [a[0] for a in arcs], [a[1] for a in arcs], [a[2] for a in arcs])


def test_build_network_demo10(demo10):
    net = _network(demo10, 2)
    assert (net.r, net.k, net.node_count) == (6, 2, 7)
    # c-arcs are ids 0..r-1, weight 0, joining consecutive nodes
    assert net.arcs[:6] == tuple((i, i + 1, 0) for i in range(6))
    # vertex v's i-arc is id r + v and carries its weight
    i_arcs = net.arcs[6:]
    assert len(i_arcs) == 10
    assert [w for _, _, w in i_arcs] == [v.w for v in demo10.vertices]
    # a vertex spanning cliques p..q becomes an arc from node p-1 to node q
    for vid, (p, q) in DEMO10_SPANS.items():
        assert i_arcs[vid][:2] == (p - 1, q)
    assert i_arcs[4][:2] == (1, 4)


def test_build_network_single_vertex():
    inst = make_instance([(0, 5, 7)])
    net = _network(inst, 3)
    assert (net.node_count, net.k) == (2, 3)
    assert net.arcs == ((0, 1, 0), (0, 1, 7))


def test_build_network_rejects_empty_and_bad_k(demo10):
    cs = enumerate_maximal_cliques(make_instance([]))
    with pytest.raises(EmptyInstance):
        build_network(cs, make_instance([]), 1)
    with pytest.raises(ValueError):
        _network(demo10, 0)


def test_compute_pi_demo10(demo10):
    net = _network(demo10, 2)
    pi = compute_pi(net)
    assert pi == DEMO10_PI
    # pi is a longest-path bound: no arc can improve on it
    for tail, head, w in net.arcs:
        assert pi[tail] >= w + pi[head]
    assert pi[-1] == 0


def test_compute_pi_zero_weights():
    inst = make_instance([(0, 2, 0), (1, 3, 0)])
    assert compute_pi(_network(inst, 1)) == [0, 0]


def test_transform_weights_demo10(demo10):
    net = _network(demo10, 2)
    pi = compute_pi(net)
    weight_u = transform_weights(net, pi)
    assert tuple(weight_u) == DEMO10_WEIGHT_U
    assert all(0 <= wu <= pi[0] for wu in weight_u)
    # transformed weight is the slack of the arc against the longest path
    for (tail, head, w), wu in zip(net.arcs, weight_u):
        assert wu == pi[tail] - pi[head] - w


def test_transform_weights_rejects_inconsistent_pi():
    net = FlowNetwork(r=1, k=1, tail=[0, 0], head=[1, 1], weight=[0, 5])
    with pytest.raises(InternalInvariantViolation,
                       match=r"^arc 1: transformed weight -5 outside \[0, 0\]$"):
        transform_weights(net, [0, 0])  # pi ignores the weight-5 arc


def test_transform_weights_names_the_first_offender():
    # arc 0 lies above pi[0] and arc 1 below 0: the lower id is named
    net = FlowNetwork(r=2, k=1, tail=[0, 1, 0], head=[1, 2, 2], weight=[0, 0, 1])
    with pytest.raises(InternalInvariantViolation,
                       match=r"^arc 0: transformed weight 5 outside \[0, 3\]$"):
        transform_weights(net, [3, -2, 0])


def _flow_checks(net, flow, k):
    # capacities respected, conservation at interior nodes, k units end to end
    balance = [0] * net.node_count
    for a, ((tail, head, _), f) in enumerate(zip(net.arcs, flow)):
        assert 0 <= f <= (net.k if a < net.r else 1)
        balance[tail] += f
        balance[head] -= f
    assert balance[0] == k
    assert balance[-1] == -k
    assert all(b == 0 for b in balance[1:-1])


def test_solve_k_flow_demo10(demo10):
    net = _network(demo10, 2)
    pi = compute_pi(net)
    weight_u = transform_weights(net, pi)
    flow = check_flow_rounds(net, weight_u)
    assert flow == DEMO10_FLOW_K2
    cost_u = flow_cost(weight_u, flow)
    weight_n = flow_cost(net.weight, flow)
    assert cost_u == 6
    assert weight_n == 34
    assert weight_n + cost_u == 2 * pi[0]
    _flow_checks(net, flow, 2)


def test_solve_k1_flow_has_zero_cost(demo10):
    # one unit of flow can follow the longest path exactly
    net = _network(demo10, 1)
    weight_u = transform_weights(net, compute_pi(net))
    flow = solve_min_cost_k_flow(net, weight_u)
    assert flow_cost(weight_u, flow) == 0
    assert flow_cost(net.weight, flow) == 20


def test_solve_mwkc_rejects_a_k1_flow_that_costs_more_than_0(demo10, monkeypatch):
    # the all-c-arc chain is feasible and meets the bookkeeping identity
    # (0 == pi[0] - pi[0]), but it selects nothing where 20 is possible
    monkeypatch.setattr("sessionpick.solver.solve_min_cost_k_flow",
                        lambda net, weight_u: [1] * net.r + [0] * (len(net.arcs) - net.r))
    with pytest.raises(InternalInvariantViolation,
                       match=r"^k = 1 flow costs 20, not 0: not optimal$"):
        solve_mwkc(demo10, 1)


@pytest.mark.parametrize("triples,k,expected", [
    # identical intervals: vertex 0's i-arc is scanned first and wins
    ([(0, 10, 5), (0, 10, 5)], 1, [0, 1, 0]),
    # a weight-0 slot: the c-arc has the lower id and beats its parallel i-arc
    ([(0, 10, 0)], 1, [1, 0]),
    # round 1 takes vertex 2's i-arc (arc 5), round 2 cancels it, so its
    # forward edge regains capacity and goes back into the search
    ([(0, 3, 5), (4, 7, 5), (4, 5, 4), (1, 5, 6), (6, 8, 6)], 1, [0, 0, 0, 1, 0, 1, 0, 1]),
    ([(0, 3, 5), (4, 7, 5), (4, 5, 4), (1, 5, 6), (6, 8, 6)], 2, [0, 0, 0, 1, 1, 0, 1, 1]),
    # round 1 takes vertex 0's i-arc (arc 3), round 2 cancels it, and round
    # 3 takes it again over its identical twin, vertex 1's arc 4: the
    # returning edge must regain its place in id order, not join the end
    ([(2, 3, 1), (2, 3, 1), (0, 3, 2), (2, 4, 5), (0, 2, 5), (3, 4, 5)], 3,
     [1, 0, 1, 1, 0, 1, 1, 1, 1]),
    # round 2: the source pushes node 1 at level 5, then node 2 and node 1
    # at level 0, the level it is popped from; node 1 pops first, in id
    # order, not push order, and leaves its entry at level 5 stale
    ([(5, 6, 0), (4, 6, 0), (0, 5, 5), (0, 3, 5), (1, 6, 5)], 2, [0, 0, 0, 0, 1, 0, 1, 1]),
    # round 2: the source opens level 3 (node 1), then level 1 (node 2)
    # below it; node 2 pushes the sink at level 6, then lowers it to level
    # 5, opened below the pending 6: levels pop by value, not opening order
    ([(3, 6, 3), (0, 3, 3), (0, 5, 2), (4, 7, 5), (5, 6, 1)], 2, [0, 0, 0, 0, 1, 1, 1, 1]),
])
def test_solve_k_flow_tie_cases(triples, k, expected):
    inst = make_instance(triples)
    net = _network(inst, k)
    weight_u = transform_weights(net, compute_pi(net))
    assert solve_min_cost_k_flow(net, weight_u) == reference_k_flow(net, weight_u) == expected


@pytest.mark.parametrize("k", range(1, 9))
def test_solve_k_flow_equals_reference_on_fixtures(demo10, three_channels_csv, k):
    three = to_intervals(parse_schedule(three_channels_csv.read_text(), "csv"))
    for inst in (demo10, three):
        net = _network(inst, k)
        weight_u = transform_weights(net, compute_pi(net))
        assert solve_min_cost_k_flow(net, weight_u) == reference_k_flow(net, weight_u)


@pytest.mark.parametrize("k,expected", [
    (1, [0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0]),
    (2, [0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0]),
    (3, [0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1]),
])
def test_solve_k_flow_with_tails_falling_by_arc_id(k, expected):
    # vertex ids run against start order, so i-arc tails fall as arc id
    # rises; two pairs of identical slots (ids 2 and 3, 5 and 7) share a
    # tail, and each node's edges must still be scanned in id order
    inst = make_instance([(8, 10, 3), (6, 9, 2), (4, 7, 5), (4, 7, 5),
                          (2, 5, 4), (0, 3, 1), (0, 6, 4), (0, 3, 1)])
    net = _network(inst, k)
    assert [tail for tail, _, _ in net.arcs[net.r:]] == [3, 2, 1, 1, 0, 0, 0, 0]
    weight_u = transform_weights(net, compute_pi(net))
    flow = solve_min_cost_k_flow(net, weight_u)
    assert flow == reference_k_flow(net, weight_u) == expected


# Round 1 reads each arc as pointing forward. Two hand-built arcs that do
# not: the first leaves round 1's parents in the cycle 1 -> 2 -> 1, so the
# k = 1 walk back from the sink would never end; the second lowers node 1
# after its scan, so round 2 would start from potentials that are not
# distances. Each runs in a child process, so a hang fails the test.
@pytest.mark.parametrize("r,k,arcs,weight_u,message", [
    (2, 1, ((0, 1, 0), (1, 2, 0), (2, 1, 0)), [5, 0, -10],
     "arc 2 runs from node 2 to node 1, not forward"),
    (3, 2, ((0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 2, 0), (2, 1, 0), (1, 3, 0)),
     [10, 0, 5, 0, 0, 0], "arc 4 runs from node 2 to node 1, not forward"),
])
def test_solve_k_flow_rejects_an_arc_that_does_not_point_forward(r, k, arcs, weight_u, message):
    columns = ", ".join(repr([a[i] for a in arcs]) for i in range(3))
    code = ("from sessionpick import FlowNetwork, solve_min_cost_k_flow\n"
            "try:\n"
            f"    solve_min_cost_k_flow(FlowNetwork({r}, {k}, {columns}), {weight_u!r})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == message + "\n"


@pytest.mark.parametrize("r,k,arcs,weight_u,message", [
    (1, 1, ((0, 1, 0), (0, 5, 0)), [0, 0], "arc 1 runs from node 0 to node 5, outside nodes 0..1"),
    (1, 1, ((0, 1, 0), (7, 9, 0)), [0, 0], "arc 1 runs from node 7 to node 9, outside nodes 0..1"),
    (1, 2, ((0, 1, 0),), [0, 0, 0],
     "len(net.arcs) = 1 and len(weight_u) = 3 must be equal and at least r = 1"),
    (1, 1, ((0, 1, 0),), [],
     "len(net.arcs) = 1 and len(weight_u) = 0 must be equal and at least r = 1"),
    (3, 2, ((0, 1, 0),), [0],
     "len(net.arcs) = 1 and len(weight_u) = 1 must be equal and at least r = 3"),
])
def test_solve_k_flow_names_a_malformed_network(r, k, arcs, weight_u, message):
    with pytest.raises(ValueError) as info:
        solve_min_cost_k_flow(_hand_built(r, k, arcs), weight_u)
    assert str(info.value) == message
    # the IndexError that led to the arc scan stays out of the traceback
    assert info.value.__context__ is None or info.value.__suppress_context__


def test_solve_k_flow_names_columns_of_unequal_length():
    net = FlowNetwork(r=1, k=1, tail=[0, 0], head=[1], weight=[0, 5])
    with pytest.raises(ValueError, match=r"^len\(net.head\) = 1, not len\(net.tail\) = 2$"):
        solve_min_cost_k_flow(net, [0, 0])


def test_solve_k_flow_unreachable_sink_is_invariant_violation():
    # the second c-arc points backwards, so no path reaches the sink (node 2);
    # the per-node reachability check reports it
    net = FlowNetwork(r=2, k=1, tail=[0, 2], head=[1, 1], weight=[0, 0])
    with pytest.raises(InternalInvariantViolation, match="node 2 unreachable"):
        solve_min_cost_k_flow(net, [0, 0])


@pytest.mark.parametrize("changes,match", [
    ({3: 0}, "conservation"),  # a unit taken off a used c-arc
    ({9: 1}, "conservation"),  # a unit put on vertex 3's unused i-arc
    ({6: 2}, "conservation"),  # vertex 0's used i-arc set to 2
    # both units take vertex 0's i-arc (id 6), then the c-arcs 1..5 to the sink
    ({a: 0 for a in range(7, 16)} | {a: 2 for a in range(1, 7)}, "selected twice"),
    # a third unit along all six c-arcs
    ({a: DEMO10_FLOW_K2[a] + 1 for a in range(6)}, "not fully decomposed"),
    # three units along all six c-arcs and none on an i-arc: more empty
    # paths than k
    ({a: 3 for a in range(6)} | {a: 0 for a in range(6, 16)}, "not fully decomposed"),
])
def test_extract_solution_rejects_corrupted_flow(demo10, changes, match):
    net = _network(demo10, 2)
    flow = list(DEMO10_FLOW_K2)
    for arc, units in changes.items():
        flow[arc] = units
    with pytest.raises(InternalInvariantViolation, match=match):
        extract_solution(flow, net, demo10)


def test_extract_solution_rejects_overlap_inside_one_class(demo10):
    # demo10's flow read against an instance where vertex 4 starts before
    # vertex 0 ends, though vertex 4's i-arc follows vertex 0's on one path
    net = _network(demo10, 2)
    moved = make_instance([(2 if v.vertex_id == 4 else v.s, v.f, v.w) for v in demo10.vertices])
    with pytest.raises(InternalInvariantViolation, match="vertices 0 and 4 overlap"):
        extract_solution(DEMO10_FLOW_K2, net, moved)


def test_extract_solution_demo10(demo10):
    net = _network(demo10, 2)
    flow = solve_min_cost_k_flow(net, transform_weights(net, compute_pi(net)))
    sol = extract_solution(flow, net, demo10)
    assert sol.k == 2
    assert sol.total_weight == 34
    assert sol.Q == frozenset({0, 1, 2, 4, 5, 8, 9})
    assert len(sol.classes) == 2
    weights = [sum(demo10.w[v] for v in cls) for cls in sol.classes]
    assert weights == sorted(weights, reverse=True)
    for cls in sol.classes:
        starts = [demo10.s[v] for v in cls]
        assert starts == sorted(starts)
    assert not verify_solution(sol, demo10, 2).violations


@pytest.mark.parametrize("k,expected", [(1, 20), (2, 34), (3, 38), (4, 39), (10, 39)])
def test_solve_mwkc_demo10_totals(demo10, k, expected):
    sol = solve_mwkc(demo10, k)
    assert sol.total_weight == expected
    assert len(sol.classes) == k
    assert not verify_solution(sol, demo10, k).violations


@pytest.mark.parametrize("shift", [-2 ** 61, 0, 2 ** 61])
def test_session_order_ignores_coordinate_size(shift):
    # a weight-0 session sorts before the empty one however far the
    # coordinates lie from 0
    triples = [(6, 7, 0), (8, 12, 0), (4, 12, 0), (9, 10, 1)]
    sol = solve_mwkc(make_instance([(s + shift, f + shift, w) for s, f, w in triples]), 3)
    assert sol.classes == ((3,), (2,), ())


def test_solve_mwkc_k1_picks_heaviest_chain(demo10):
    sol = solve_mwkc(demo10, 1)
    assert sol.Q == frozenset({0, 4, 5, 9})


def test_solve_mwkc_rejects_empty_and_bad_k(demo10):
    with pytest.raises(EmptyInstance):
        solve_mwkc(make_instance([]), 1)
    with pytest.raises(ValueError):
        solve_mwkc(demo10, 0)


@pytest.mark.parametrize("call", [solve_mwkc, _network, brute_force_mwkc],
                         ids=["solve_mwkc", "build_network", "brute_force_mwkc"])
@pytest.mark.parametrize("k", [2.0, True, "2", None])
@pytest.mark.parametrize("triples", [[(0, 10, 1)], []], ids=["one", "empty"])
def test_k_that_is_not_an_int_is_a_value_error(call, k, triples):
    # checked before `k < 1` and before the empty-instance check
    with pytest.raises(ValueError, match=rf"^k must be an integer, got {re.escape(repr(k))}$"):
        call(make_instance(triples), k)


def test_solve_mwkc_deterministic(demo10):
    a = solve_mwkc(demo10, 2)
    b = solve_mwkc(demo10, 2)
    assert a == b


def test_solve_mwkc_cross_checks_components(demo10):
    sol = solve_checked(demo10, 2)
    assert sol.total_weight == per_component_total(demo10, 2) == 34
    gapped = make_instance([(0, 2, 3), (1, 3, 4), (10, 12, 5), (11, 13, 6), (12, 14, 7)])
    sol = solve_checked(gapped, 2)
    assert sol.total_weight == per_component_total(gapped, 2)
    assert sol.total_weight == brute_force_mwkc(gapped, 2).best_weight == 25
    assert not verify_solution(sol, gapped, 2).violations


def test_disconnected_instance_uses_all_classes_everywhere():
    # two far-apart stacks of three identical intervals; with k=2 the solver
    # must pick two from each stack, reusing both classes across the gap
    inst = make_instance([(0, 5, 4), (0, 5, 4), (0, 5, 4),
                          (100, 105, 4), (100, 105, 4), (100, 105, 4)])
    sol = solve_mwkc(inst, 2)
    assert sol.total_weight == 16
    assert len([v for v in sol.Q if inst.s[v] == 0]) == 2
    assert len([v for v in sol.Q if inst.s[v] == 100]) == 2


def test_random_instances_match_oracle_with_validation():
    rng = random.Random(97)
    for _ in range(60):
        inst = make_instance([
            (s := rng.randint(0, 19), rng.randint(s + 1, 20), rng.randint(0, 9))
            for _ in range(rng.randint(1, 12))])
        for k in (1, 2, 3):
            sol = solve_checked(inst, k)
            assert sol.total_weight == per_component_total(inst, k)
            assert sol.total_weight == brute_force_mwkc(inst, k).best_weight
            assert not verify_solution(sol, inst, k).violations


def test_three_channels_known_totals(three_channels_csv):
    inst = to_intervals(parse_schedule(three_channels_csv.read_text(), "csv"))
    assert solve_mwkc(inst, 1).total_weight == 110
    # best two-session total; the independent oracle lands on the same value
    sol2 = solve_checked(inst, 2)
    assert sol2.total_weight == brute_force_mwkc(inst, 2).best_weight == 185
    assert not verify_solution(sol2, inst, 2).violations
    assert solve_mwkc(inst, 3).total_weight == inst.total_weight == 215


def test_dense_k1_solve_peak_memory():
    # 10k intervals of length 1-6000 on [0, 1e5] with weights 1-1000, the
    # shape that sets the benchmark's peak memory. At k = 1 the flow builds
    # no residual graph, and the spans and pi are dropped once read: about
    # 3.6 MB traced at the peak, where keeping them all took 5.6 MB
    rng = random.Random(7)
    triples = []
    for _ in range(10_000):
        length = rng.randint(1, 6000)
        s = rng.randint(0, 100_000 - length)
        triples.append((s, s + length, rng.randint(1, 1000)))
    inst = make_instance(triples)
    tracemalloc.start()
    try:
        sol = solve_mwkc(inst, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verify_solution(sol, inst, 1).violations
    assert peak < 4.5 * 2**20
