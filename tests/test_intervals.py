import random

import pytest

from sessionpick import (
    CliqueSequence,
    Vertex,
    connected_components,
    enumerate_maximal_cliques,
    overlaps,
    parse_schedule,
    to_intervals,
)

from conftest import (
    DEMO10_CLIQUES,
    DEMO10_SPANS,
    make_instance,
    max_depth,
    random_instance,
    reference_clique_sequence,
    reference_maximal_cliques,
)


@pytest.mark.parametrize("a,b,expected", [
    ((0, 5), (3, 8), True),    # plain crossing
    ((3, 8), (0, 5), True),
    ((0, 5), (5, 8), False),   # touching endpoints do not count
    ((5, 8), (0, 5), False),
    ((0, 10), (3, 4), True),   # nesting
    ((2, 6), (2, 6), True),    # identical
    ((0, 2), (5, 8), False),
])
def test_overlaps(a, b, expected):
    va = Vertex(0, a[0], a[1], 0)
    vb = Vertex(1, b[0], b[1], 0)
    assert overlaps(va, vb) is expected
    assert overlaps(vb, va) is expected


def test_demo10_cliques(demo10):
    cs = enumerate_maximal_cliques(demo10)
    assert cs.cliques == DEMO10_CLIQUES
    assert cs.r == 6
    assert dict(enumerate(cs.spans)) == DEMO10_SPANS
    # each leading point is the last start before its clique stops growing
    assert cs.leading_points == (2, 5, 7, 10, 14, 16)
    assert list(cs.leading_points) == sorted(cs.leading_points)


def test_single_interval():
    inst = make_instance([(3, 7, 2)])
    cs = enumerate_maximal_cliques(inst)
    assert cs.cliques == ((0,),)
    assert cs.spans[0] == (1, 1)
    assert cs.leading_points == (3,)


def test_empty_instance():
    inst = make_instance([])
    cs = enumerate_maximal_cliques(inst)
    assert cs == reference_clique_sequence(inst) == CliqueSequence((), [], [])
    assert cs.r == 0
    assert cs.cliques == ()
    assert (inst.n, max_depth(inst), connected_components(inst)) == (0, 0, [])


def test_sweep_spans_at_tied_endpoints():
    # a second finish at 5 and two more at 8 tie a trigger: they add no
    # clique and share its q; starts at 3 and 5 sit on a trigger, so their
    # p is the next trigger's
    inst = make_instance([(0, 5, 1), (3, 5, 1), (5, 8, 1), (5, 8, 1), (1, 3, 1), (3, 8, 1)])
    cs = enumerate_maximal_cliques(inst)
    assert cs == reference_clique_sequence(inst)
    assert cs == CliqueSequence((1, 3, 5), [1, 2, 3, 3, 1, 2], [2, 2, 3, 3, 1, 3])
    assert cs.spans == ((1, 2), (2, 2), (3, 3), (3, 3), (1, 1), (2, 3))
    assert cs.cliques == ((0, 4), (0, 1, 5), (2, 3, 5))


def test_two_disjoint_intervals():
    inst = make_instance([(0, 1, 1), (5, 6, 1)])
    cs = enumerate_maximal_cliques(inst)
    assert cs.cliques == ((0,), (1,))
    assert connected_components(inst) == [[0], [1]]


def test_identical_intervals_form_one_clique():
    inst = make_instance([(1, 4, 2), (1, 4, 3)])
    cs = enumerate_maximal_cliques(inst)
    assert cs.cliques == ((0, 1),)
    assert (max_depth(inst), connected_components(inst)) == (2, [[0, 1]])


def test_demo10_stats(demo10):
    assert demo10.n == 10
    assert max_depth(demo10) == 4
    assert len(connected_components(demo10)) == 1


def test_demo10_components(demo10):
    comps = connected_components(demo10)
    assert [sorted(c) for c in comps] == [list(range(10))]
    # within a component, vertices come out in order of their start points
    assert comps[0] == sorted(comps[0], key=demo10.s.__getitem__)


def test_three_channels_shape(three_channels_csv):
    inst = to_intervals(parse_schedule(three_channels_csv.read_text(), "csv"))
    cs = enumerate_maximal_cliques(inst)
    assert inst.n == 54
    assert cs.r == 28
    assert max_depth(inst) == 3
    assert sorted(len(c) for c in connected_components(inst)) == [1, 3, 3, 5, 5, 5, 13, 19]


def test_cliques_match_subset_enumeration():
    rng = random.Random(41)
    for _ in range(200):
        inst = random_instance(rng, n_max=10, coord_max=20)
        cs = enumerate_maximal_cliques(inst)
        cliques = cs.cliques
        assert list(cliques) == reference_maximal_cliques(inst)
        # spans describe exactly the cliques each vertex belongs to
        for vid, (p, q) in enumerate(cs.spans):
            member_of = [i + 1 for i, c in enumerate(cliques) if vid in c]
            assert member_of == list(range(p, q + 1))
        assert max(map(len, cliques)) == max_depth(inst)
