import numpy as np
import pytest

from gwnet import (BaseMismatchError, Coupling, GwParams, GwnetError,
                   MeasureNetwork, TangentVector, aligned_distance, exp_map,
                   geodesic_certificate, gw_distance, injectivity_radius,
                   inner_product, log_map, norm, uniform_network)

from conftest import random_network
from oracles import expansion_coupling_target


def _one_node_log(one_node, two_swap):
    C = Coupling(np.array([[0.5, 0.5]]), one_node.mu, two_swap.mu)
    return log_map(one_node, two_swap, coupling=C)


# ----------------------------------------------------------------- log map

def test_log_of_the_one_node_pair(one_node, two_swap):
    v, pair = _one_node_log(one_node, two_swap)
    assert np.array_equal(v.base.omega, np.ones((2, 2)))
    assert np.array_equal(v.base.mu, [0.5, 0.5])
    assert np.array_equal(v.f, [[-1.0, 0.0], [0.0, -1.0]])
    assert pair.size == 2


def test_exp_of_half_the_log_is_the_midpoint(one_node, two_swap):
    v, _ = _one_node_log(one_node, two_swap)
    mid = exp_map(0.5 * v)
    assert np.array_equal(mid.omega, [[0.5, 1.0], [1.0, 0.5]])
    assert np.array_equal(mid.mu, [0.5, 0.5])


def test_log_at_the_same_network_is_zero():
    rng = np.random.default_rng(20)
    X = random_network(rng, 4, uniform_mu=False)
    C = Coupling(np.diag(X.mu), X.mu, X.mu)
    v, pair = log_map(X, X, coupling=C)
    assert not v.f.any()
    assert np.array_equal(pair.omega_xhat, X.omega)


def test_exp_undoes_log_up_to_weak_isomorphism():
    rng = np.random.default_rng(21)
    for _ in range(5):
        X = random_network(rng, 3, uniform_mu=False)
        Y = random_network(rng, 4, uniform_mu=False)
        v, pair = log_map(X, Y, GwParams(restarts=4, rng_seed=0))
        Z = exp_map(v)
        # the endpoint is the target expansion node for node
        assert np.allclose(Z.omega, pair.omega_yhat, atol=1e-12)
        # and keeps the expansion's measure: its sum is within n ulps of 1
        assert np.array_equal(Z.mu, pair.mu_hat)
        C = expansion_coupling_target(Y, pair)
        d = gw_distance(Y, Z, GwParams(given=C.matrix))
        assert d <= 1e-6


def test_norm_of_the_log_is_twice_the_distance():
    rng = np.random.default_rng(22)
    for _ in range(5):
        X = random_network(rng, 3, uniform_mu=False)
        Y = random_network(rng, 5, uniform_mu=False)
        v, pair = log_map(X, Y, GwParams(restarts=4, rng_seed=0))
        assert norm(v) == pytest.approx(2 * aligned_distance(pair),
                                        rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ vector space

def test_tangent_vector_validates_its_matrix(one_node):
    with pytest.raises(GwnetError):
        TangentVector(one_node, np.zeros((2, 2)))
    with pytest.raises(GwnetError):
        TangentVector(one_node, np.array([[np.nan]]))


def test_vector_arithmetic(two_swap):
    v = TangentVector(two_swap, np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = TangentVector(two_swap, np.array([[0.5, 0.0], [0.0, -1.0]]))
    assert np.array_equal((v + w).f, [[1.5, 2.0], [3.0, 3.0]])
    assert np.array_equal((v - w).f, [[0.5, 2.0], [3.0, 5.0]])
    assert np.array_equal((2.0 * v).f, (v * 2.0).f)
    assert np.array_equal((2.0 * v).f, [[2.0, 4.0], [6.0, 8.0]])


def test_vectors_on_different_bases_do_not_mix(one_node, two_swap):
    v = TangentVector(one_node, np.array([[1.0]]))
    w = TangentVector(two_swap, np.zeros((2, 2)))
    with pytest.raises(BaseMismatchError):
        v + w
    skewed = MeasureNetwork(two_swap.omega, np.array([0.3, 0.7]))
    u = TangentVector(skewed, np.zeros((2, 2)))
    with pytest.raises(BaseMismatchError):
        inner_product(w, u)


def test_inner_product_matches_the_double_sum(two_swap):
    rng = np.random.default_rng(23)
    base = MeasureNetwork(two_swap.omega, np.array([0.3, 0.7]))
    v = TangentVector(base, rng.standard_normal((2, 2)))
    w = TangentVector(base, rng.standard_normal((2, 2)))
    expect = sum(v.f[i, j] * w.f[i, j] * base.mu[i] * base.mu[j]
                 for i in range(2) for j in range(2))
    assert inner_product(v, w) == pytest.approx(expect, rel=1e-12)
    assert inner_product(v, w) == pytest.approx(inner_product(w, v), rel=1e-12)


def test_inner_product_is_bilinear():
    rng = np.random.default_rng(24)
    base = uniform_network(rng.standard_normal((3, 3)))
    v = TangentVector(base, rng.standard_normal((3, 3)))
    w = TangentVector(base, rng.standard_normal((3, 3)))
    u = TangentVector(base, rng.standard_normal((3, 3)))
    a, b = 1.7, -0.4
    lhs = inner_product(a * v + b * w, u)
    rhs = a * inner_product(v, u) + b * inner_product(w, u)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------- radius and certificates

def test_injectivity_radius_cases(two_swap):
    assert injectivity_radius(two_swap) == 0.5
    const = MeasureNetwork(np.full((3, 3), 2.0), np.full(3, 1 / 3))
    assert injectivity_radius(const) == np.inf
    mixed = MeasureNetwork(np.array([[0.0, 0.3], [1.0, 0.0]]),
                           np.array([0.5, 0.5]))
    assert injectivity_radius(mixed) == pytest.approx(0.15)


def test_certificate_thresholds(two_swap):
    zero = TangentVector(two_swap, np.zeros((2, 2)))
    cert = geodesic_certificate(two_swap, zero)
    assert cert.geodesic and cert.log_injective
    assert cert.radius == 0.5 and cert.max_abs_f == 0.0

    big = TangentVector(two_swap, np.full((2, 2), 0.4))
    cert = geodesic_certificate(two_swap, big)
    assert cert.geodesic and not cert.log_injective

    small = TangentVector(two_swap, np.full((2, 2), 0.2))
    cert = geodesic_certificate(two_swap, small)
    assert cert.geodesic and cert.log_injective

    huge = TangentVector(two_swap, np.full((2, 2), 0.6))
    assert not geodesic_certificate(two_swap, huge).geodesic

