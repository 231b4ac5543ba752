import pytest

from sessionpick import (
    InstanceTooLarge,
    KcolourSolution,
    brute_force_mwkc,
    solve_mwkc,
    verify_solution,
)

from conftest import make_instance


def test_oracle_demo10(demo10):
    res = brute_force_mwkc(demo10, 2)
    assert res.best_weight == 34
    assert res.best_subset == frozenset({0, 1, 2, 4, 5, 8, 9})
    assert res.nodes_explored > 0


def test_oracle_demo10_k1(demo10):
    res = brute_force_mwkc(demo10, 1)
    assert res.best_weight == 20
    assert res.best_subset == frozenset({0, 4, 5, 9})


def test_oracle_saturates_at_total_weight(demo10):
    res = brute_force_mwkc(demo10, 10)
    assert res.best_weight == demo10.total_weight == 39
    assert res.best_subset == frozenset(range(10))


def test_oracle_empty_and_bad_k(demo10):
    assert brute_force_mwkc(make_instance([]), 2).best_weight == 0
    with pytest.raises(ValueError):
        brute_force_mwkc(demo10, 0)


def test_oracle_size_guard():
    crowd = make_instance([(0, 10, 1)] * 21)  # one component of 21
    with pytest.raises(InstanceTooLarge):
        brute_force_mwkc(crowd, 2)
    # many small components are fine even when n exceeds the per-component cap
    spread = make_instance([(10 * i, 10 * i + 1, 1) for i in range(25)])
    assert brute_force_mwkc(spread, 1).best_weight == 25


def test_oracle_component_limit_boundary():
    # a run of slots that each overlap the next is one component
    run = [(i, i + 3, i % 4 + 1) for i in range(21)]
    searched = make_instance(run[:20])
    assert brute_force_mwkc(searched, 2).best_weight == solve_mwkc(searched, 2).total_weight
    with pytest.raises(InstanceTooLarge, match="21 intervals exceeds the search limit 20"):
        brute_force_mwkc(make_instance(run), 2)


def test_verify_accepts_solver_output(demo10):
    for k in (1, 2, 3, 5):
        report = verify_solution(solve_mwkc(demo10, k), demo10, k)
        assert not report.violations
        assert report.violations == ()
        assert sum(report.class_weights) == report.total_weight


def test_verify_accepts_empty_solution(demo10):
    sol = KcolourSolution(k=2, Q=frozenset(), classes=((), ()), total_weight=0)
    assert not verify_solution(sol, demo10, 2).violations


def _sol(k, classes, total):
    flat = [v for cls in classes for v in cls]
    return KcolourSolution(k=k, Q=frozenset(flat), classes=classes, total_weight=total)


def test_verify_rejects_overlap_within_class(demo10):
    # vertices 0 (2,3) and 1 (1,6) overlap, so they cannot share a class
    sol = _sol(2, ((0, 1), (2,)), 14)
    report = verify_solution(sol, demo10, 2)
    assert report.violations
    assert any("overlap" in v for v in report.violations)


def test_verify_rejects_duplicate_vertex(demo10):
    sol = _sol(2, ((0,), (0,)), 10)
    report = verify_solution(sol, demo10, 2)
    assert report.violations


def test_verify_rejects_too_many_classes(demo10):
    sol = _sol(1, ((0,), (2,)), 11)
    report = verify_solution(sol, demo10, 1)
    assert report.violations


def test_verify_rejects_unknown_vertex(demo10):
    sol = _sol(2, ((0,), (42,)), 5)
    assert verify_solution(sol, demo10, 2).violations


def test_verify_rejects_q_class_mismatch(demo10):
    sol = KcolourSolution(k=2, Q=frozenset({0, 2}), classes=((0,),), total_weight=5)
    assert verify_solution(sol, demo10, 2).violations


def test_verify_rejects_wrong_total(demo10):
    sol = _sol(2, ((0,), (2,)), 99)
    report = verify_solution(sol, demo10, 2)
    assert report.violations
    assert report.total_weight == 11  # the recomputed weight, not the claim
