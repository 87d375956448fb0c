import itertools
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwnet import InfeasibleMarginalsError, GwnetError, OtProblem, \
    solve_linear_ot
from gwnet import linear_ot
from gwnet.linear_ot import _network_simplex

from oracles import brute_min_ot, highs_min_ot


def _solve(prob, basis=None):
    """The vertex solve_linear_ot returns, and its objective value."""
    C = solve_linear_ot(prob, basis)
    return C, float((prob.cost * C.matrix).sum())


def test_one_row_polytope_is_a_point():
    prob = OtProblem(np.array([[3.0, -1.0]]), np.array([1.0]),
                     np.array([0.5, 0.5]))
    C, val = _solve(prob)
    assert np.array_equal(C.matrix, np.array([[0.5, 0.5]]))
    assert val == pytest.approx(0.5 * 3.0 - 0.5)


def test_one_column_polytope_is_a_point():
    prob = OtProblem(np.array([[2.0], [4.0]]), np.array([0.25, 0.75]),
                     np.array([1.0]))
    C = solve_linear_ot(prob)
    assert np.array_equal(C.matrix, np.array([[0.25], [0.75]]))


def test_identity_favoring_cost_gives_diagonal():
    prob = OtProblem(np.array([[0.0, 1.0], [1.0, 0.0]]),
                     np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    C, val = _solve(prob)
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
        C, val = _solve(OtProblem(cost, p, q))
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
        C, val = _solve(OtProblem(cost, p, p))
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
        C, val = _solve(OtProblem(cost, p, p))
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
        C, val = _solve(OtProblem(cost, p, p))
        assert val == pytest.approx(highs_min_ot(cost, p, p), rel=1e-9)
        _check_assignment_vertex(C, p)


def test_nearly_uniform_square_takes_the_lp_path(monkeypatch):
    def no_assignment(cost):
        raise AssertionError("assignment path taken for non-uniform q")

    monkeypatch.setattr("gwnet.linear_ot._assign", no_assignment)
    n = 6
    rng = np.random.default_rng(9)
    p = np.full(n, 1.0 / n)
    q = p.copy()
    q[0] = np.nextafter(np.nextafter(q[0], 1.0), 1.0)
    q[1] = np.nextafter(np.nextafter(q[1], 0.0), 0.0)
    cost = rng.standard_normal((n, n))
    C, val = _solve(OtProblem(cost, p, q))
    assert (C.matrix > 1e-12).sum() <= 2 * n - 1
    assert (C.matrix >= 0).all()
    assert np.abs(C.matrix.sum(axis=1) - p).max() < 1e-15
    assert np.abs(C.matrix.sum(axis=0) - q).max() < 1e-15
    assert val == pytest.approx(highs_min_ot(cost, p, q), rel=1e-9)


def test_assignment_solves_leave_scipy_optimize_unloaded(tmp_path):
    tests = Path(__file__).resolve().parent
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    code = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(tests.parent / "src")!r}, {str(tests)!r}]
        import numpy as np
        import gwnet, gwnet.cli
        from gwnet import (MeasureNetwork, OtProblem, solve_linear_ot,
                           write_network)

        def optimize_modules():
            return [m for m in sys.modules if m.startswith("scipy.optimize")]

        p = np.full(5, 0.2)
        cost = np.random.default_rng(3).standard_normal((5, 5))
        C = solve_linear_ot(OtProblem(cost, p, p))
        val = float((cost * C.matrix).sum())
        assert not optimize_modules(), "loaded by the solve"
        rng = np.random.default_rng(4)
        for path in ({str(x)!r}, {str(y)!r}):
            write_network(MeasureNetwork(rng.standard_normal((6, 6)),
                                         np.full(6, 1 / 6)), path)
        assert gwnet.cli.main(["distance", {str(x)!r}, {str(y)!r}]) == 0
        assert not optimize_modules(), "loaded by distance"
        # the oracle imports scipy.optimize itself, so it comes last
        from oracles import highs_min_ot
        assert abs(val - highs_min_ot(cost, p, p)) <= 1e-9 * abs(val)
        """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _assignment_costs():
    """Seeded square costs for n = 1..40: normal draws, and integer draws
    in {0, 1, 2} that make many assignments tie."""
    rng = np.random.default_rng(23)
    for n in range(1, 41):
        yield rng.standard_normal((n, n))
        yield rng.integers(0, 3, (n, n)).astype(float)


def test_loaded_kernel_matches_scipy_optimize():
    from scipy.optimize import linear_sum_assignment
    kernel = linear_ot._load_lsap()
    for cost in _assignment_costs():
        rows, cols = kernel(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)


def test_kernel_falls_back_to_scipy_optimize(monkeypatch):
    from scipy.optimize import linear_sum_assignment
    monkeypatch.setattr(linear_ot, "_lsap_path", lambda: None)
    monkeypatch.setattr(linear_ot, "_lsap", None)
    for cost in _assignment_costs():
        rows, cols = linear_ot._assign(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)
    assert linear_ot._lsap is linear_sum_assignment


def test_marginals_exact_to_machine_precision():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = rng.integers(2, 7), rng.integers(2, 7)
        p = rng.random(n) + 0.05
        p /= p.sum()
        q = rng.random(m) + 0.05
        q /= q.sum()
        C = solve_linear_ot(OtProblem(rng.standard_normal((n, m)), p, q))
        assert np.abs(C.matrix.sum(axis=1) - p).max() < 1e-15
        assert np.abs(C.matrix.sum(axis=0) - q).max() < 1e-15


def test_cost_scaling_keeps_the_same_vertex():
    rng = np.random.default_rng(2)
    cost = rng.standard_normal((4, 3))
    p = np.full(4, 0.25)
    q = np.full(3, 1 / 3)
    C1 = solve_linear_ot(OtProblem(cost, p, q))
    C2 = solve_linear_ot(OtProblem(cost * 1e9, p, q))
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


@pytest.mark.parametrize("n, m, uniform", [
    (1, 3, False), (3, 1, False), (3, 3, True), (2, 3, False)])
def test_coupling_is_read_only_and_owns_its_marginals(n, m, uniform):
    rng = np.random.default_rng(31)
    cost = rng.standard_normal((n, m))
    p = np.full(n, 1 / n) if uniform else rng.dirichlet(np.ones(n))
    q = np.full(m, 1 / m) if uniform else rng.dirichlet(np.ones(m))
    C = solve_linear_ot(OtProblem(cost, p, q))
    for a in (C.matrix, C.row_marginal, C.col_marginal):
        assert not a.flags.writeable
    before = (C.matrix.copy(), C.row_marginal.copy(), C.col_marginal.copy())
    cost[:] = 0.0
    p[:] = 0.0
    q[:] = 0.0
    for a, b in zip((C.matrix, C.row_marginal, C.col_marginal), before):
        assert np.array_equal(a, b)


def test_repair_handles_tiny_masses():
    p = np.array([1e-9, 1.0 - 1e-9])
    q = np.array([0.5, 0.5])
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    C = solve_linear_ot(OtProblem(cost, p, q))
    assert np.abs(C.matrix.sum(axis=1) - p).max() < 1e-15
    assert (C.matrix >= 0).all()


def _check_vertex(C, val, cost, p, q, slack=None):
    """Optimal against HiGHS (to 1e-9 relative, or `slack` absolute), a
    forest support and exact marginals."""
    n, m = cost.shape
    assert val == pytest.approx(highs_min_ot(cost, p, q), rel=1e-9,
                                abs=slack)
    assert (C.matrix >= 0).all()
    assert (C.matrix > 0).sum() <= n + m - 1
    assert np.abs(C.matrix.sum(axis=1) - p).max() <= 1e-15
    assert np.abs(C.matrix.sum(axis=0) - q).max() <= 1e-15


def _masses(rng, n, lo):
    """Positive masses spread over the decades from 10**lo to 0.1."""
    v = 10.0 ** rng.uniform(lo, -1.0, n)
    return v / v.sum()


def test_tall_problems_with_tiny_row_masses():
    # the shape of the Frechet mean's alignments onto a grown base
    rng = np.random.default_rng(140)
    for _ in range(5):
        n, m = int(rng.integers(130, 150)), 6
        cost = rng.standard_normal((n, m))
        p = _masses(rng, n, -10.0)
        q = rng.dirichlet(np.ones(m))
        _check_vertex(*_solve(OtProblem(cost, p, q)), cost, p, q)


def test_wide_uniform_unequal_marginals():
    # the block-model compression: 5 seed nodes against 100 members
    rng = np.random.default_rng(5100)
    p, q = np.full(5, 1 / 5), np.full(100, 1 / 100)
    for _ in range(5):
        cost = rng.standard_normal((5, 100))
        _check_vertex(*_solve(OtProblem(cost, p, q)), cost, p, q)


def test_dirichlet_masses_off_square():
    rng = np.random.default_rng(1218)
    for _ in range(10):
        cost = rng.standard_normal((12, 18))
        p, q = rng.dirichlet(np.ones(12)), rng.dirichlet(np.ones(18))
        _check_vertex(*_solve(OtProblem(cost, p, q)), cost, p, q)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (2, 4), (4, 3), (3, 4)])
def test_degenerate_costs_match_vertex_sweep(n, m):
    # integer costs tie many bases and uniform masses make many flows run
    # out together, so most pivots are degenerate
    rng = np.random.default_rng(10 * n + m)
    p, q = np.full(n, 1 / n), np.full(m, 1 / m)
    for _ in range(40):
        cost = rng.integers(0, 3, (n, m)).astype(float)
        basis = []
        C, val = _solve(OtProblem(cost, p, q), basis)
        best, _ = brute_min_ot(cost, p, q)
        assert val == pytest.approx(best, abs=1e-12)
        assert (C.matrix > 0).sum() <= n + m - 1
        assert np.abs(C.matrix.sum(axis=1) - p).max() <= 1e-15
        assert np.abs(C.matrix.sum(axis=0) - q).max() <= 1e-15
        # strongly feasible: a zero-flow arc hangs a row under a column,
        # pointing up to the root
        parent, flow = basis
        assert all(x < n <= parent[x] for x in range(n + m)
                   if parent[x] >= 0 and flow[x] == 0.0)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr("gwnet.linear_ot.PIVOTS_PER_NODE", 0)
    # the matrix-minimum start fills the cheap cell (0, 0) and leaves row 1
    # to pay 5 on column 1; the optimum sends row 1 to column 0
    cost = np.array([[0.0, 0.1], [1.0, 5.0]])
    p, q = np.array([0.5, 0.5]), np.array([0.4, 0.6])
    with pytest.raises(GwnetError, match="pivot"):
        solve_linear_ot(OtProblem(cost, p, q))


def test_shared_basis_solves_each_problem_exactly():
    # the Frank-Wolfe steps of one solve share their marginals and a basis
    rng = np.random.default_rng(77)
    p, q = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(14))
    cost = rng.standard_normal((9, 14))
    basis = []
    for _ in range(8):
        cost = cost + 0.3 * rng.standard_normal((9, 14))
        C, val = _solve(OtProblem(cost, p, q), basis)
        _check_vertex(C, val, cost, p, q)
    # the shared tree is the optimal one: solving again needs no pivot
    again, pivots = _network_simplex(cost, p, q, basis)
    assert pivots == 0
    assert np.array_equal(again, C.matrix)


@st.composite
def _transport_problems(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    decades = st.floats(-12.0, 0.0)
    p = 10.0 ** np.array(draw(st.lists(decades, min_size=n, max_size=n)))
    q = 10.0 ** np.array(draw(st.lists(decades, min_size=m, max_size=m)))
    entries = st.integers(0, 3).map(float) if draw(st.booleans()) \
        else st.floats(-10.0, 10.0)
    cost = np.array(draw(st.lists(entries, min_size=n * m,
                                  max_size=n * m))).reshape(n, m)
    return cost, p / p.sum(), q / q.sum()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_transport_problems())
def test_property_matches_highs_on_a_forest(problem):
    cost, p, q = problem
    n, m = cost.shape
    basis = []
    C, val = _solve(OtProblem(cost, p, q), basis)
    # HiGHS stops once no reduced cost is below its 1e-10 tolerance times
    # the largest cost, so its objective is good to about that much (a
    # drawn case: costs 0 and -1e-12 on a uniform 2 x 2, optimum -5e-13,
    # HiGHS 0)
    scale = float(np.abs(cost).max())
    _check_vertex(C, val, cost, p, q, slack=1e-10 * scale)
    if basis:
        # LP duality at any mass scale: potentials solved from the final
        # tree price no cell below zero, and the flow stays on the tree
        parent, _ = basis
        eqs, rhs = np.zeros((n + m, n + m)), np.zeros(n + m)
        tree = np.zeros((n, m), dtype=bool)
        for x, y in enumerate(parent):
            if y < 0:
                eqs[x, x] = 1.0
            else:
                i, j = min(x, y), max(x, y) - n
                eqs[x, i] = eqs[x, n + j] = 1.0
                rhs[x] = cost[i, j]
                tree[i, j] = True
        pi = np.linalg.solve(eqs, rhs)
        assert (cost - pi[:n, None] - pi[None, n:]).min() >= -1e-11 * scale
        assert not C.matrix[~tree].any()
