import numpy as np
import pytest

from gwnet import (Coupling, GwParams, GwnetError, MeasureNetwork,
                   NegativeRadicandError, distortion_matrix, gw_distance, gw_gradient,
                   northwest_corner, random_vertex, solve_gw,
                   support_size, uniform_network)
from gwnet.gw import _cross, _line_step, _objective

from conftest import psd_network, random_network
from oracles import brute_min_gw, fd_gradient, gw_objective


def _random_coupling(rng, p, q):
    """A generic feasible point: mixture of product and a random vertex."""
    t = rng.random()
    return t * np.outer(p, q) + (1 - t) * random_vertex(p, q, rng)


# ------------------------------------------------------------- distortion

def _tensor_distortion(X, Y, C) -> float:
    return float(np.sqrt(gw_objective(X.omega, Y.omega, C)))


def test_distortion_on_the_one_node_pair(one_node, two_swap):
    C = np.array([[0.5, 0.5]])
    for fn in (_tensor_distortion, distortion_matrix):
        dis = fn(one_node, two_swap, C)
        assert dis == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert dis / 2 == pytest.approx(0.35355, abs=1e-5)


def test_distortion_zero_on_identical_pair():
    rng = np.random.default_rng(0)
    X = random_network(rng, 4)
    C = np.diag(X.mu)
    assert _tensor_distortion(X, X, C) == 0.0
    # the fast path cancels two near-equal constants, so the squared value
    # carries ~1e-16 of dust and its square root ~1e-8
    assert distortion_matrix(X, X, C) == pytest.approx(0.0, abs=1e-6)


def test_tensor_and_matrix_forms_agree():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n, m = rng.integers(2, 7), rng.integers(2, 7)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C = _random_coupling(rng, X.mu, Y.mu)
        a = _tensor_distortion(X, Y, C)
        b = distortion_matrix(X, Y, C)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_factored_cross_term_identity():
    # for PSD weights X = U U^T and Y = V V^T the cross term
    # tr(C^T X^T C Y) equals ||U^T C V||_F^2
    rng = np.random.default_rng(3)
    U = rng.standard_normal((4, 4))
    V = rng.standard_normal((3, 3))
    X = MeasureNetwork(U @ U.T, np.full(4, 0.25))
    Y = MeasureNetwork(V @ V.T, np.full(3, 1 / 3))
    C = _random_coupling(rng, X.mu, Y.mu)
    cross = np.trace(C.T @ X.omega.T @ C @ Y.omega)
    assert cross == pytest.approx(
        np.linalg.norm(U.T @ C @ V) ** 2, rel=1e-10)
    const = float(X.mu @ X.omega ** 2 @ X.mu + Y.mu @ Y.omega ** 2 @ Y.mu)
    assert distortion_matrix(X, Y, C) == pytest.approx(
        np.sqrt(const - 2 * cross), rel=1e-10)


def test_dimension_mismatch_raises(one_node, two_swap):
    with pytest.raises(GwnetError):
        distortion_matrix(one_node, two_swap, np.array([[1.0]]))
    with pytest.raises(GwnetError):
        gw_gradient(one_node, two_swap, np.array([[1.0]]))


def test_negative_radicand_raises_a_typed_error(two_swap):
    # 10 I is not a coupling: the radicand is 1 - 2 * 200 = -399
    with pytest.raises(NegativeRadicandError):
        distortion_matrix(two_swap, two_swap, 10.0 * np.eye(2))


def test_rounding_below_zero_at_scale_is_clamped():
    # 1e8-scale weights against themselves: the radicand rounds to -2.0
    # against a constant of about 1.7e16, which the clamp absorbs
    rng = np.random.default_rng(0)
    n = rng.integers(2, 8)
    X = uniform_network(1e8 * rng.standard_normal((n, n)))
    C = np.diag(X.mu)
    assert _objective(X, X, C)[0] < 0
    assert distortion_matrix(X, X, C) == 0.0


# --------------------------------------------------------------- gradient

def test_gradient_symmetric_equals_twice_operator():
    rng = np.random.default_rng(4)
    X = random_network(rng, 4, asym=False)
    Y = random_network(rng, 3, asym=False)
    C = np.outer(X.mu, Y.mu)
    g = gw_gradient(X, Y, C)
    # symmetric weights: twice (X.^2 p)_i + (Y.^2 q)_j - 2 (X C Y)_ij
    A, B = X.omega, Y.omega
    once = (A**2 @ X.mu)[:, None] + (B**2 @ Y.mu)[None, :] - 2 * A @ C @ B
    assert np.allclose(g, 2 * once, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, m = rng.integers(2, 6), rng.integers(2, 6)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C = _random_coupling(rng, X.mu, Y.mu)
        g = gw_gradient(X, Y, C)
        assert np.abs(g - fd_gradient(X.omega, Y.omega, C)).max() < 1e-5


def test_gradient_zero_for_zero_weights():
    X = MeasureNetwork(np.zeros((3, 3)), np.full(3, 1 / 3))
    C = np.outer(X.mu, X.mu)
    assert np.array_equal(gw_gradient(X, X, C), np.zeros((3, 3)))


def test_operator_adjoint_pairing():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 4))
    Y = rng.standard_normal((3, 3))
    C = rng.random((4, 3))
    D = rng.random((4, 3))
    # the operator is self-adjoint: <cross(C), D> = <C, cross(D)>
    lhs = np.sum(_cross(X, Y, C) * D)
    rhs = np.sum(C * _cross(X, Y, D))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------------- polytope vertices

def test_northwest_corner_uniform_is_diagonal():
    p = np.full(4, 0.25)
    assert np.array_equal(northwest_corner(p, p), np.diag(p))


def test_northwest_corner_general_marginals():
    p = np.array([0.3, 0.7])
    q = np.array([0.2, 0.3, 0.5])
    C = northwest_corner(p, q)
    assert np.abs(C.sum(1) - p).max() < 1e-15
    assert np.abs(C.sum(0) - q).max() < 1e-15
    assert (C > 1e-15).sum() <= 4


def test_random_vertex_is_seeded_and_feasible():
    p = np.array([0.3, 0.3, 0.4])
    q = np.array([0.25, 0.25, 0.5])
    a = random_vertex(p, q, np.random.default_rng(9))
    b = random_vertex(p, q, np.random.default_rng(9))
    c = random_vertex(p, q, np.random.default_rng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.abs(a.sum(1) - p).max() < 1e-15
    assert (a > 1e-15).sum() <= 5


def test_line_step_cases():
    assert _line_step(1.0, -1.0) == 0.5      # interior minimum
    assert _line_step(1.0, -4.0) == 1.0      # clamped right
    assert _line_step(1.0, 1.0) == 0.0       # clamped left
    assert _line_step(-1.0, -1.0) == 1.0     # concave, endpoint compare
    assert _line_step(-1.0, 2.0) == 0.0
    assert _line_step(0.0, -1.0) == 1.0      # linear decreasing
    assert _line_step(0.0, 1.0) == 0.0
    assert _line_step(0.0, 0.0) == 1.0       # flat: the vertex end
    assert _line_step(-1.0, 1.0) == 1.0      # concave tie: the vertex end


# ----------------------------------------------------------------- solver

def test_solver_one_node_gives_product(one_node, two_swap):
    C, report = solve_gw(one_node, two_swap)
    assert np.array_equal(C.matrix, np.array([[0.5, 0.5]]))
    assert report.gw_distance == pytest.approx(0.35355, abs=1e-5)
    assert report.converged


def test_solver_ends_flat_solves_on_a_vertex(two_swap):
    # every coupling of a constant network ties, so FW meets only flat
    # segments; the second pair is non-uniform and goes through the simplex
    rng = np.random.default_rng(31)
    flat_pairs = [
        (MeasureNetwork(np.ones((2, 2)), np.full(2, 0.5)), two_swap),
        (MeasureNetwork(np.zeros((3, 3)), np.full(3, 1 / 3)),
         MeasureNetwork(rng.standard_normal((7, 7)),
                        rng.dirichlet(np.ones(7))))]
    for X, Y in flat_pairs:
        C, report = solve_gw(X, Y)
        assert support_size(C) <= X.size + Y.size - 1
        assert report.converged
        product = np.outer(X.mu, Y.mu)
        assert report.gw_distance == pytest.approx(
            distortion_matrix(X, Y, product) / 2, abs=1e-12)


def test_solver_identical_networks_reach_zero():
    rng = np.random.default_rng(12)
    omega = rng.random((5, 5)) * 10  # generic distinct entries
    X = MeasureNetwork(omega, np.full(5, 0.2))
    C, report = solve_gw(X, X, GwParams(given=np.diag(X.mu)))
    assert report.cost <= 1e-8
    assert (C.matrix > 1e-9).sum() == 5  # permutation support


def test_solver_trace_non_increasing():
    rng = np.random.default_rng(13)
    X = random_network(rng, 5)
    Y = random_network(rng, 6)
    _, report = solve_gw(X, Y)
    trace = np.array(report.objective_trace)
    assert (np.diff(trace) <= 1e-12).all()


def test_reported_cost_is_the_exact_objective_at_the_coupling():
    # the solver updates J and G along each step instead of recomputing
    # them; the reported cost must still be the objective at the returned
    # coupling, and the trace must still never rise
    rng = np.random.default_rng(18)
    for trial in range(24):
        n, m = rng.integers(2, 9, size=2)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C, report = solve_gw(X, Y, GwParams(max_outer_iters=50,
                                            restarts=2 * (trial % 2),
                                            rng_seed=trial))
        const = float(X.mu @ X.omega ** 2 @ X.mu + Y.mu @ Y.omega ** 2 @ Y.mu)
        tol = 1e-12 * (1 + const)
        exact = gw_objective(X.omega, Y.omega, C.matrix)
        assert abs(report.cost ** 2 - exact) <= tol
        assert report.cost == distortion_matrix(X, Y, C)
        assert report.objective_trace[-1] == pytest.approx(report.cost ** 2,
                                                           abs=tol)
        assert (np.diff(report.objective_trace) <= tol).all()


def test_solver_deterministic_under_seed():
    rng = np.random.default_rng(14)
    X = random_network(rng, 4)
    Y = random_network(rng, 5)
    p = GwParams(restarts=3, rng_seed=21)
    C1, r1 = solve_gw(X, Y, p)
    C2, r2 = solve_gw(X, Y, p)
    assert np.array_equal(C1.matrix, C2.matrix)
    assert r1.cost == r2.cost


def test_solver_finds_global_optimum_on_concave_instances():
    # PSD weights make the objective concave over the polytope, so the
    # vertex sweep is a true global oracle
    rng = np.random.default_rng(15)
    for _ in range(6):
        X = psd_network(rng, 3)
        Y = psd_network(rng, int(rng.integers(2, 5)))
        val, _ = brute_min_gw(X.omega, Y.omega, X.mu, Y.mu)
        d_oracle = np.sqrt(max(val, 0.0)) / 2
        d = gw_distance(X, Y, GwParams(restarts=16, rng_seed=0))
        assert d == pytest.approx(d_oracle, abs=1e-7)


def test_solver_never_beaten_by_seeding_at_the_oracle_vertex():
    rng = np.random.default_rng(16)
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    val, V = brute_min_gw(X.omega, Y.omega, X.mu, Y.mu)
    _, report = solve_gw(X, Y, GwParams(given=V))
    assert report.cost ** 2 <= val + 1e-9


def test_solver_estimate_is_symmetric_on_solved_instances():
    rng = np.random.default_rng(17)
    X = psd_network(rng, 3)
    Y = psd_network(rng, 3)
    p = GwParams(restarts=4, rng_seed=1)
    assert gw_distance(X, Y, p) == pytest.approx(gw_distance(Y, X, p),
                                                 abs=1e-7)


def test_params_validation():
    with pytest.raises(GwnetError):
        GwParams(max_outer_iters=0)
    with pytest.raises(GwnetError):
        GwParams(restarts=-1)
    for count in (2.5, float("nan"), "3"):
        with pytest.raises(GwnetError):
            GwParams(max_outer_iters=count)
    with pytest.raises(GwnetError):
        GwParams(restarts=1.5)


def test_given_coupling_must_match_shapes(one_node, two_swap):
    params = GwParams(given=np.eye(2) * 0.5)
    with pytest.raises(GwnetError):
        solve_gw(one_node, two_swap, params)


@pytest.mark.parametrize("given", [
    np.zeros((2, 2)),                          # carries no mass
    np.diag([0.9, 0.1]),                       # couples other measures
    np.array([[0.6, -0.1], [-0.1, 0.6]]),      # right sums, negative entry
    np.full((2, 2), np.nan),
])
def test_given_start_must_couple_the_two_measures(two_swap, given):
    with pytest.raises(GwnetError):
        solve_gw(two_swap, two_swap, GwParams(given=given))


def test_solve_returns_valid_coupling():
    rng = np.random.default_rng(19)
    X = random_network(rng, 4, uniform_mu=False)
    Y = random_network(rng, 6, uniform_mu=False)
    C, _ = solve_gw(X, Y, GwParams(restarts=2))
    assert isinstance(C, Coupling)
    assert (C.matrix >= 0).all()
    assert np.abs(C.matrix.sum(1) - X.mu).max() < 1e-8
    assert np.abs(C.matrix.sum(0) - Y.mu).max() < 1e-8
