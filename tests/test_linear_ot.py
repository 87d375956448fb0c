import itertools

import numpy as np
import pytest

from gwnet import InfeasibleMarginalsError, GwnetError, OtProblem, \
    solve_linear_ot
from gwnet.linear_ot import _repair_on_forest

from oracles import brute_min_ot, highs_min_ot


def test_one_row_polytope_is_a_point():
    prob = OtProblem(np.array([[3.0, -1.0]]), np.array([1.0]),
                     np.array([0.5, 0.5]))
    C, val = solve_linear_ot(prob)
    assert np.array_equal(C.matrix, np.array([[0.5, 0.5]]))
    assert val == pytest.approx(0.5 * 3.0 - 0.5)


def test_one_column_polytope_is_a_point():
    prob = OtProblem(np.array([[2.0], [4.0]]), np.array([0.25, 0.75]),
                     np.array([1.0]))
    C, _ = solve_linear_ot(prob)
    assert np.array_equal(C.matrix, np.array([[0.25], [0.75]]))


def test_identity_favoring_cost_gives_diagonal():
    prob = OtProblem(np.array([[0.0, 1.0], [1.0, 0.0]]),
                     np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    C, val = solve_linear_ot(prob)
    assert np.allclose(C.matrix, np.diag([0.5, 0.5]))
    assert val == pytest.approx(0.0, abs=1e-15)


def test_matches_vertex_sweep_on_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, m = rng.integers(2, 5), rng.integers(2, 5)
        cost = rng.standard_normal((n, m))
        p = rng.random(n) + 0.2
        p /= p.sum()
        q = rng.random(m) + 0.2
        q /= q.sum()
        C, val = solve_linear_ot(OtProblem(cost, p, q))
        best, _ = brute_min_ot(cost, p, q)
        assert val == pytest.approx(best, abs=1e-10)
        assert (C.matrix > 1e-12).sum() <= n + m - 1


def _check_assignment_vertex(C, p):
    """A scaled permutation: n entries, each exactly the common mass."""
    n = len(p)
    support = C.matrix[C.matrix != 0]
    assert len(support) == n
    assert np.all(support == p[0])
    assert np.abs(C.matrix.sum(axis=1) - p).max() == 0.0
    assert np.abs(C.matrix.sum(axis=0) - p).max() == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_uniform_square_matches_vertex_sweep(n):
    rng = np.random.default_rng(n)
    p = np.full(n, 1.0 / n)
    # integer costs in {0, 1, 2} make several permutations tie
    costs = [rng.standard_normal((n, n)) for _ in range(4)] + \
        [rng.integers(0, 3, (n, n)).astype(float) for _ in range(4)]
    for cost in costs:
        C, val = solve_linear_ot(OtProblem(cost, p, p))
        best, _ = brute_min_ot(cost, p, p)
        assert val == pytest.approx(best, abs=1e-12)
        assert val == np.sum(cost * C.matrix)
        _check_assignment_vertex(C, p)


def test_uniform_square_matches_permutation_sweep_at_five():
    # the spanning-tree sweep needs about 20 s at n = 5; the Birkhoff
    # polytope's vertices are the 120 scaled permutations
    n = 5
    rng = np.random.default_rng(55)
    p = np.full(n, 1.0 / n)
    for cost in (rng.standard_normal((n, n)),
                 rng.integers(0, 3, (n, n)).astype(float)):
        C, val = solve_linear_ot(OtProblem(cost, p, p))
        best = min(sum(cost[i, s[i]] for i in range(n)) / n
                   for s in itertools.permutations(range(n)))
        assert val == pytest.approx(best, abs=1e-12)
        _check_assignment_vertex(C, p)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_uniform_square_matches_highs(n):
    rng = np.random.default_rng(100 + n)
    p = np.full(n, 1.0 / n)
    for _ in range(3):
        cost = rng.standard_normal((n, n))
        C, val = solve_linear_ot(OtProblem(cost, p, p))
        assert val == pytest.approx(highs_min_ot(cost, p, p), rel=1e-9)
        _check_assignment_vertex(C, p)


def test_nearly_uniform_square_takes_the_lp_path(monkeypatch):
    def no_assignment(cost):
        raise AssertionError("assignment path taken for non-uniform q")

    monkeypatch.setattr("gwnet.linear_ot.linear_sum_assignment",
                        no_assignment)
    n = 6
    rng = np.random.default_rng(9)
    p = np.full(n, 1.0 / n)
    q = p.copy()
    q[0] = np.nextafter(np.nextafter(q[0], 1.0), 1.0)
    q[1] = np.nextafter(np.nextafter(q[1], 0.0), 0.0)
    cost = rng.standard_normal((n, n))
    C, val = solve_linear_ot(OtProblem(cost, p, q))
    assert (C.matrix > 1e-12).sum() <= 2 * n - 1
    assert (C.matrix >= 0).all()
    assert np.abs(C.matrix.sum(axis=1) - p).max() < 1e-15
    assert np.abs(C.matrix.sum(axis=0) - q).max() < 1e-15
    assert val == pytest.approx(highs_min_ot(cost, p, q), rel=1e-9)


def test_marginals_exact_to_machine_precision():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = rng.integers(2, 7), rng.integers(2, 7)
        p = rng.random(n) + 0.05
        p /= p.sum()
        q = rng.random(m) + 0.05
        q /= q.sum()
        C, _ = solve_linear_ot(OtProblem(rng.standard_normal((n, m)), p, q))
        assert np.abs(C.matrix.sum(axis=1) - p).max() < 1e-15
        assert np.abs(C.matrix.sum(axis=0) - q).max() < 1e-15


def test_cost_scaling_keeps_the_same_vertex():
    rng = np.random.default_rng(2)
    cost = rng.standard_normal((4, 3))
    p = np.full(4, 0.25)
    q = np.full(3, 1 / 3)
    C1, _ = solve_linear_ot(OtProblem(cost, p, q))
    C2, _ = solve_linear_ot(OtProblem(cost * 1e9, p, q))
    assert np.allclose(C1.matrix, C2.matrix, atol=1e-12)


def test_problem_validation():
    with pytest.raises(InfeasibleMarginalsError):
        OtProblem(np.zeros((2, 2)), np.array([0.7, 0.4]),
                  np.array([0.5, 0.5]))
    with pytest.raises(InfeasibleMarginalsError):
        OtProblem(np.zeros((2, 2)), np.array([1.0, 0.0]),
                  np.array([0.5, 0.5]))
    for bad in ([np.nan, 0.5], [np.inf, 0.5], [np.nan, np.nan]):
        with pytest.raises(InfeasibleMarginalsError):
            OtProblem(np.zeros((2, 2)), np.array(bad), np.array([0.5, 0.5]))
        with pytest.raises(InfeasibleMarginalsError):
            OtProblem(np.zeros((2, 2)), np.array([0.5, 0.5]), np.array(bad))
    with pytest.raises(GwnetError):
        OtProblem(np.array([[np.inf, 0], [0, 0]]), np.array([0.5, 0.5]),
                  np.array([0.5, 0.5]))
    with pytest.raises(GwnetError):
        OtProblem(np.zeros((2, 3)), np.array([0.5, 0.5]),
                  np.array([0.5, 0.5]))


def test_repair_restores_marginals_from_noisy_vertex():
    p = np.array([0.3, 0.7])
    q = np.array([0.2, 0.3, 0.5])
    vertex = np.array([[0.2, 0.1, 0.0], [0.0, 0.2, 0.5]])
    noisy = vertex + np.array([[3e-13, -2e-13, 5e-14], [0.0, 1e-13, -4e-13]])
    out = _repair_on_forest(noisy, p, q)
    assert np.abs(out.sum(axis=1) - p).max() == 0.0
    assert np.abs(out.sum(axis=0) - q).max() < 1e-16
    assert np.allclose(out, vertex, atol=1e-12)


def test_repair_breaks_cycles():
    # the product coupling's support is the full bipartite graph: a cycle
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.5])
    out = _repair_on_forest(np.full((2, 2), 0.25), p, q)
    assert (out > 1e-12).sum() <= 3
    assert np.abs(out.sum(axis=1) - p).max() < 1e-15
    assert np.abs(out.sum(axis=0) - q).max() < 1e-15


def test_repair_handles_tiny_masses():
    p = np.array([1e-9, 1.0 - 1e-9])
    q = np.array([0.5, 0.5])
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    C, _ = solve_linear_ot(OtProblem(cost, p, q))
    assert np.abs(C.matrix.sum(axis=1) - p).max() < 1e-15
    assert (C.matrix >= 0).all()
