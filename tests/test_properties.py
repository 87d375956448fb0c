"""Randomized invariants of the distortion and the Frank-Wolfe solve.

Networks have 1-12 nodes, asymmetric weights of any sign (also constant
and 1e8-scale), and uniform or Dirichlet masses down to 1e-12. An input
may instead raise a typed GwnetError; any other exception fails.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from gwnet import (GwnetError, MeasureNetwork, distortion_matrix,
                   random_vertex, solve_gw)
from conftest import measure_networks
from oracles import gw_objective


def _scale(X, Y) -> float:
    """max(1, <p, X.^2 p> + <q, Y.^2 q>): the size of the terms the squared
    distortion is computed from, so the size of its rounding."""
    return max(1.0, float(X.mu @ X.omega ** 2 @ X.mu
                          + Y.mu @ Y.omega ** 2 @ Y.mu))


@st.composite
def _coupled_pairs(draw):
    """Two networks and a coupling of their measures: a random mix of the
    product coupling and a random vertex."""
    X, Y = draw(measure_networks()), draw(measure_networks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.sampled_from([0.0, 0.5, 1.0, rng.random()]))
    C = t * np.outer(X.mu, Y.mu) + (1 - t) * random_vertex(X.mu, Y.mu, rng)
    return X, Y, C, rng


def _relabel(net: MeasureNetwork, perm) -> MeasureNetwork:
    return MeasureNetwork(net.omega[np.ix_(perm, perm)], net.mu[perm])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_coupled_pairs())
def test_property_distortion_matches_the_four_index_oracle(case):
    X, Y, C, _ = case
    try:
        dis = distortion_matrix(X, Y, C)
    except GwnetError:
        return
    oracle = gw_objective(X.omega, Y.omega, C)
    assert abs(dis ** 2 - oracle) <= 1e-9 * _scale(X, Y)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_coupled_pairs())
def test_property_distortion_is_symmetric_and_relabeling_invariant(case):
    X, Y, C, rng = case
    sigma, tau = rng.permutation(X.size), rng.permutation(Y.size)
    try:
        dis = distortion_matrix(X, Y, C)
        swapped = distortion_matrix(Y, X, C.T)
        relabeled = distortion_matrix(_relabel(X, sigma), _relabel(Y, tau),
                                      C[np.ix_(sigma, tau)])
    except GwnetError:
        return
    tol = 1e-9 * _scale(X, Y)
    assert abs(swapped ** 2 - dis ** 2) <= tol
    assert abs(relabeled ** 2 - dis ** 2) <= tol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(measure_networks(), measure_networks())
def test_property_solve_trace_never_rises_and_cost_is_the_distortion(X, Y):
    try:
        C, report = solve_gw(X, Y)
        dis = distortion_matrix(X, Y, C)
    except GwnetError:
        return
    trace = np.array(report.objective_trace)
    assert (np.diff(trace) <= 1e-12 * _scale(X, Y)).all()
    assert abs(report.cost - dis) <= 1e-9 * dis
