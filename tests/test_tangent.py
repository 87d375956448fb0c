import numpy as np
import pytest

from gwnet import (Coupling, GwParams, GwnetError, TangentVector,
                   aligned_distance, exp_map, gw_distance, log_map, solve_gw)

from conftest import random_network
from oracles import expansion_coupling_target, norm


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
    mid = exp_map(TangentVector(v.base, 0.5 * v.f))
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
        C, _ = solve_gw(X, Y, GwParams(restarts=4, rng_seed=0))
        v, pair = log_map(X, Y, C)
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
        C, _ = solve_gw(X, Y, GwParams(restarts=4, rng_seed=0))
        v, pair = log_map(X, Y, C)
        assert norm(v) == pytest.approx(2 * aligned_distance(pair),
                                        rel=1e-9, abs=1e-12)


# ----------------------------------------------------------- tangent vector

def test_tangent_vector_validates_its_matrix(one_node):
    with pytest.raises(GwnetError):
        TangentVector(one_node, np.zeros((2, 2)))
    with pytest.raises(GwnetError):
        TangentVector(one_node, np.array([[np.nan]]))
