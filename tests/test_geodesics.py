import numpy as np
import pytest

from gwnet import (Coupling, GeodesicRep, GwParams, GwnetError,
                   aligned_distance, blow_up, evaluate, geodesic_aligned,
                   gw_distance, solve_gw)

from conftest import random_network
from oracles import geodesic_naive


def _geodesic(X, Y, C):
    """The geodesic along a given coupling, built as the library builds
    it from a solved one."""
    pair = blow_up(X, Y, C)
    return GeodesicRep(pair, aligned_distance(pair))


def _one_node_geodesic(one_node, two_swap):
    C = Coupling(np.array([[0.5, 0.5]]), one_node.mu, two_swap.mu)
    return _geodesic(one_node, two_swap, C)


def test_endpoints_reproduce_the_aligned_pair(one_node, two_swap):
    g = _one_node_geodesic(one_node, two_swap)
    start = evaluate(g, 0.0)
    end = evaluate(g, 1.0)
    assert np.array_equal(start.omega, np.ones((2, 2)))
    assert np.array_equal(end.omega, two_swap.omega)
    assert np.array_equal(start.mu, [0.5, 0.5])
    assert np.array_equal(end.mu, [0.5, 0.5])


def test_midpoint_averages_the_endpoints(one_node, two_swap):
    g = _one_node_geodesic(one_node, two_swap)
    mid = evaluate(g, 0.5)
    assert np.array_equal(mid.omega, [[0.5, 1.0], [1.0, 0.5]])


def test_half_length_is_the_certified_distance(one_node, two_swap):
    g = _one_node_geodesic(one_node, two_swap)
    assert g.half_length == pytest.approx(np.sqrt(0.5) / 2, abs=1e-15)
    assert g.size == 2


def test_t_outside_unit_interval_is_rejected(one_node, two_swap):
    g = _one_node_geodesic(one_node, two_swap)
    for t in (-0.1, 1.1, 2.0):
        with pytest.raises(GwnetError, match=r"outside \[0, 1\]"):
            evaluate(g, t)


def test_endpoints_are_weakly_isomorphic_to_the_inputs():
    rng = np.random.default_rng(10)
    X = random_network(rng, 3, uniform_mu=False)
    Y = random_network(rng, 4, uniform_mu=False)
    g = geodesic_aligned(X, Y, GwParams(restarts=4, rng_seed=0))
    # an expansion only copies nodes, so it stays at distance zero from
    # the original (the solver's floor is sqrt of ~1e-16 dust)
    assert gw_distance(X, evaluate(g, 0.0), GwParams(restarts=4)) <= 1e-6
    assert gw_distance(Y, evaluate(g, 1.0), GwParams(restarts=4)) <= 1e-6


def test_aligned_and_naive_constructions_agree():
    rng = np.random.default_rng(11)
    X = random_network(rng, 3, uniform_mu=False)
    Y = random_network(rng, 4, uniform_mu=False)
    C, _ = solve_gw(X, Y, GwParams(restarts=4, rng_seed=0))
    g = _geodesic(X, Y, C)
    at = geodesic_naive(X, Y, C)
    # same support walked in the same row-major order, so nodes match
    for t in (0.0, 0.25, 0.5, 1.0):
        a, b = evaluate(g, t), at(t)
        assert a.size == b.size
        assert np.allclose(a.omega, b.omega, atol=1e-12)
        assert np.allclose(a.mu, b.mu, atol=1e-12)


def test_interpolation_moves_at_constant_speed():
    # between interpolants the diagonal coupling certifies
    # d <= |t - s| * half_length, and the certificate is exact here
    rng = np.random.default_rng(12)
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    g = geodesic_aligned(X, Y, GwParams(restarts=4, rng_seed=0))
    ts = [0.0, 0.3, 0.7, 1.0]
    for s in ts:
        for t in ts:
            A, B = evaluate(g, s), evaluate(g, t)
            diff2 = (A.omega - B.omega) ** 2
            d_diag = np.sqrt(float(A.mu @ diff2 @ A.mu)) / 2
            assert d_diag == pytest.approx(abs(t - s) * g.half_length,
                                           rel=1e-9, abs=1e-12)


def test_geodesic_from_a_network_to_itself_is_constant():
    rng = np.random.default_rng(13)
    X = random_network(rng, 4)
    C = Coupling(np.diag(X.mu), X.mu, X.mu)
    g = _geodesic(X, X, C)
    assert g.half_length == pytest.approx(0.0, abs=1e-12)
    for t in (0.0, 0.5, 1.0):
        assert np.array_equal(evaluate(g, t).omega, X.omega)


def test_naive_geodesic_validates_inputs(one_node, two_swap):
    C = Coupling(np.array([[0.5, 0.5]]), one_node.mu, two_swap.mu)
    at = geodesic_naive(one_node, two_swap, C)
    with pytest.raises(GwnetError, match=r"outside \[0, 1\]"):
        at(1.5)
    with pytest.raises(GwnetError):
        geodesic_naive(two_swap, two_swap, C)
