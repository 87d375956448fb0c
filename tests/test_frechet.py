import numpy as np
import pytest

import gwnet.frechet
from gwnet import (Coupling, DimensionMismatchError, FrechetGradient,
                   FrechetParams, GwParams, GwnetError, MeasureNetwork,
                   TangentVector, compress_log, compressed_average,
                   frechet_gradient, frechet_loss, frechet_mean, gw_distance,
                   inner_product, sequential_log, uniform_network)

from conftest import diagonal_start, random_network


def _example_pair(one_node, two_swap):
    """The blown-up one-node network and the two-node swap."""
    xhat = MeasureNetwork(np.ones((2, 2)), np.array([0.5, 0.5]))
    return xhat, two_swap


# -------------------------------------------------------------------- loss

def test_loss_at_a_member_of_a_singleton_is_zero():
    rng = np.random.default_rng(30)
    Z = random_network(rng, 4)
    params = FrechetParams(gw=diagonal_start(Z))
    assert frechet_loss([Z], Z, params) <= 1e-12


def test_loss_of_a_doubled_member_is_the_squared_distance():
    rng = np.random.default_rng(31)
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    d = gw_distance(X, Y)
    assert frechet_loss([Y, Y], X) == pytest.approx(d ** 2, rel=1e-12)


def test_loss_at_the_midpoint_of_the_one_node_pair(one_node, two_swap):
    xhat, Y = _example_pair(one_node, two_swap)
    mid = MeasureNetwork(np.array([[0.5, 1.0], [1.0, 0.5]]),
                         np.array([0.5, 0.5]))
    assert frechet_loss([xhat, Y], mid) == pytest.approx(0.03125, abs=1e-9)


def test_loss_rejects_an_empty_collection(two_swap):
    with pytest.raises(GwnetError):
        frechet_loss([], two_swap)


# ---------------------------------------------------------------- gradient

def test_gradient_vanishes_at_a_singleton_member():
    rng = np.random.default_rng(32)
    X = random_network(rng, 4)
    grad = frechet_gradient([X], X, FrechetParams(gw=diagonal_start(X)))
    assert not grad.gradient.f.any()
    assert grad.loss <= 1e-12
    assert grad.base.size == X.size


def test_gradient_toward_a_nearby_target_is_twice_the_difference():
    rng = np.random.default_rng(33)
    X = random_network(rng, 4)
    Y = X.with_omega(X.omega + 0.05 * rng.standard_normal((4, 4)))
    grad = frechet_gradient([Y], X, FrechetParams(gw=diagonal_start(X)))
    # the identity coupling is locally optimal here, so no expansion happens
    assert grad.base.size == 4
    assert np.allclose(grad.gradient.f, 2.0 * (X.omega - Y.omega), atol=1e-12)


def test_gradient_vanishes_at_the_entrywise_mean():
    rng = np.random.default_rng(34)
    A = random_network(rng, 4)
    members = [A.with_omega(A.omega + 0.03 * rng.standard_normal((4, 4)))
               for _ in range(3)]
    mean_omega = np.mean([m.omega for m in members], axis=0)
    grad = frechet_gradient(members, A.with_omega(mean_omega),
                            FrechetParams(gw=diagonal_start(A)))
    assert grad.base.size == 4
    assert not grad.gradient.f.any()


def test_gradient_matches_finite_differences_on_frozen_targets():
    rng = np.random.default_rng(35)
    X = random_network(rng, 3)
    members = [X.with_omega(X.omega + 0.05 * rng.standard_normal((3, 3)))
               for _ in range(2)]
    grad = frechet_gradient(members, X, FrechetParams(gw=diagonal_start(X)))
    mu, targets = grad.base.mu, grad.targets

    def frozen_loss(omega):
        return float(np.mean([mu @ ((omega - T) ** 2) @ mu
                              for T in targets])) / 4.0

    v = rng.standard_normal((3, 3))
    h = 1e-6
    fd = (frozen_loss(grad.base.omega + h * v)
          - frozen_loss(grad.base.omega - h * v)) / (2 * h)
    analytic = inner_product(
        grad.gradient,
        type(grad.gradient)(grad.base, v)) / 4.0
    assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-10)


def test_gradient_rejects_an_empty_collection(two_swap):
    with pytest.raises(GwnetError):
        frechet_gradient([], two_swap)


@pytest.mark.parametrize("compress", ["none", "to_seed_size"])
def test_warm_starts_must_match_the_members(compress):
    rng = np.random.default_rng(44)
    X = random_network(rng, 4)
    S = [random_network(rng, 3) for _ in range(2)]
    params = FrechetParams(compress=compress)
    product = np.full((4, 3), 1 / 12)
    grad = frechet_gradient(S, X, params, warm=[product, product])
    assert len(grad.couplings) == 2
    # rows to fit the base once the first member has expanded it
    grown = sequential_log(X, S[:1], params.gw, warm=[product]).base.size
    for warm in ([product], [product] * 3, [product, product[:3]],
                 [product, np.full((grown, 3), 1 / (3 * grown))]):
        with pytest.raises(DimensionMismatchError):
            frechet_gradient(S, X, params, warm=warm)
        with pytest.raises(DimensionMismatchError):
            sequential_log(X, S, params.gw, warm=warm)


@pytest.mark.parametrize("compress", ["none", "to_seed_size"])
def test_warm_starts_must_couple_the_measures(compress):
    rng = np.random.default_rng(44)
    X = random_network(rng, 4)
    S = [random_network(rng, 3) for _ in range(2)]
    params = FrechetParams(compress=compress)
    product = np.full((4, 3), 1 / 12)
    for bad in (np.zeros((4, 3)), 2 * product):
        with pytest.raises(GwnetError):
            frechet_gradient(S, X, params, warm=[product, bad])


# -------------------------------------------------------------------- mean

def test_mean_of_the_one_node_pair_is_the_midpoint(one_node, two_swap):
    xhat, Y = _example_pair(one_node, two_swap)
    result = frechet_mean([xhat, Y])
    expect = np.array([[0.5, 1.0], [1.0, 0.5]])
    diff2 = (result.network.omega - expect) ** 2
    mu = result.network.mu
    d = np.sqrt(float(mu @ diff2 @ mu)) / 2
    assert d <= 1e-6
    assert result.loss == pytest.approx(0.03125, abs=1e-9)
    assert result.converged


def test_mean_of_a_singleton_is_the_member_itself():
    rng = np.random.default_rng(36)
    X = random_network(rng, 3)
    result = frechet_mean([X], FrechetParams(gw=diagonal_start(X)), seed=X)
    assert np.allclose(result.network.omega, X.omega, atol=1e-12)
    assert result.loss <= 1e-12
    assert result.converged
    # the seed is already stationary: one evaluation, no step
    assert result.iterations == 1
    assert len(result.trace) == 1


def test_mean_of_two_aligned_members_is_their_entrywise_mean():
    rng = np.random.default_rng(37)
    A = random_network(rng, 3)
    B = A.with_omega(A.omega + 0.05 * rng.standard_normal((3, 3)))
    result = frechet_mean([A, B], FrechetParams(gw=diagonal_start(A)))
    expect = (A.omega + B.omega) / 2
    assert np.allclose(result.network.omega, expect, atol=1e-12)
    mu = A.mu
    dis2 = float(mu @ (((B.omega - A.omega) / 2) ** 2) @ mu)
    assert result.loss == pytest.approx(dis2 / 4, rel=1e-9)
    assert result.converged
    # one full step lands on the mean, where the second evaluation stops
    assert result.iterations == 2


def test_mean_stationary_at_the_cap_is_converged():
    rng = np.random.default_rng(37)
    A = random_network(rng, 3)
    B = A.with_omega(A.omega + 0.05 * rng.standard_normal((3, 3)))
    result = frechet_mean([A, B],
                          FrechetParams(max_iters=1, gw=diagonal_start(A)))
    # the one step lands on the mean, and the cap iterate is tested too
    assert result.converged
    assert result.iterations == 1
    assert len(result.trace) == 2


def test_mean_that_never_becomes_stationary_is_not_converged(monkeypatch):
    rng = np.random.default_rng(45)
    X = random_network(rng, 3)

    def flat(S, Z, params=None, warm=None):
        # the loss never moves, yet the gradient never vanishes
        return FrechetGradient(gradient=TangentVector(Z, np.ones((3, 3))),
                               base=Z, targets=(), loss=1.0, couplings=())

    monkeypatch.setattr(gwnet.frechet, "frechet_gradient", flat)
    result = frechet_mean([X], FrechetParams(max_iters=10))
    assert not result.converged
    assert result.iterations == 10
    assert len(result.trace) == 11


def test_mean_of_mixed_sizes_returns_the_best_iterate():
    rng = np.random.default_rng(38)
    S = [random_network(rng, 3), random_network(rng, 4)]
    result = frechet_mean(S, FrechetParams(max_iters=30))
    losses = [row[1] for row in result.trace]
    assert result.loss == min(losses)
    assert result.iterations <= 30
    assert all(len(row) == 3 for row in result.trace)


def test_mean_accepts_an_integer_seed():
    rng = np.random.default_rng(39)
    S = [random_network(rng, 3) for _ in range(2)]
    result = frechet_mean(S, FrechetParams(max_iters=20), seed=3)
    assert result.network.size >= 3
    assert np.isfinite(result.loss)


def test_mean_rejects_an_empty_collection():
    with pytest.raises(GwnetError):
        frechet_mean([])


# ------------------------------------------------------------- compression

def test_compress_log_of_the_one_node_pair(two_swap):
    X = MeasureNetwork(np.array([[0.0]]), np.array([1.0]))
    C = Coupling(np.array([[0.5, 0.5]]), X.mu, two_swap.mu)
    v = compress_log(X, two_swap, coupling=C)
    # the aligned difference [[0,1],[1,0]] block-averages to 0.5
    assert np.array_equal(v, [[0.5]])
    avg = compressed_average(
        X, two_swap, FrechetParams(gw=GwParams(given=C.matrix)))
    assert np.array_equal(avg.omega, [[0.25]])
    assert avg.size == 1


def test_compress_log_recovers_block_structure_exactly():
    rng = np.random.default_rng(40)
    X0 = rng.standard_normal((3, 3))
    M = rng.standard_normal((3, 3))
    X = uniform_network(X0)
    src = np.array([0, 0, 1, 1, 2, 2])
    Y = MeasureNetwork(M[np.ix_(src, src)], np.full(6, 1 / 6))
    mat = np.zeros((3, 6))
    mat[src, np.arange(6)] = 1 / 6
    v = compress_log(X, Y, coupling=Coupling(mat, X.mu, Y.mu))
    # within each block the difference is constant, so averaging is exact
    assert np.allclose(v, M - X0, atol=1e-15)


def test_compressed_mean_keeps_the_seed_size():
    rng = np.random.default_rng(41)
    S = [random_network(rng, 4), random_network(rng, 5)]
    params = FrechetParams(max_iters=15, compress="to_seed_size")
    result = frechet_mean(S, params, seed=3)
    assert result.network.size == 3
    assert all(row[2] == 3 for row in result.trace)


# ------------------------------------------------------------------ params

def test_params_are_validated(two_swap):
    with pytest.raises(GwnetError):
        FrechetParams(compress="pca")
    for count in (0, 2.5, float("nan")):
        with pytest.raises(GwnetError):
            FrechetParams(max_iters=count)
    for size in (0, -1, 2.5, float("nan"), "3"):
        with pytest.raises(GwnetError):
            frechet_mean([two_swap], seed=size)
