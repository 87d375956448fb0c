import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gwnet import (AlignedPair, Coupling, FrechetParams, GwParams, GwnetError,
                   MeasureNetwork, aligned_distance, blow_up,
                   distortion_matrix, frechet_gradient, geodesic_aligned,
                   gw_distance, log_map, random_vertex, solve_gw)
from gwnet.alignment import _support_mask, glue
from conftest import random_network
from oracles import (compressed_target, expansion_coupling_source,
                     expansion_coupling_target)


# ---------------------------------------------------------- support rule

def test_binarize_marks_positive_entries():
    assert np.array_equal(_support_mask(np.array([[0.5, 0.5]])),
                          [[1.0, 1.0]])
    D = np.diag([0.2, 0.3, 0.5])
    assert np.array_equal(_support_mask(D), np.eye(3))


def test_binarize_drops_numerical_dust():
    C = np.array([[0.5, 1e-15], [1e-15, 0.5]])
    assert np.array_equal(_support_mask(C), np.eye(2))


def test_support_size_counts_entries(one_node, two_swap):
    # the support of a coupling is the node count of its blow-up
    assert blow_up(one_node, two_swap, np.array([[0.5, 0.5]])).size == 2
    three = MeasureNetwork(np.eye(3), np.array([0.25, 0.25, 0.5]))
    assert blow_up(three, three, np.diag(three.mu)).size == 3
    C = Coupling(np.array([[0.5, 0.5]]), one_node.mu, two_swap.mu)
    assert blow_up(one_node, two_swap, C).size == 2


def test_support_is_counted_only_for_a_coupling(two_swap):
    # negative, non-finite and misshapen matrices are refused, not counted
    for bad in (-np.eye(2), np.full((2, 2), np.nan),
                np.array([[1.0, 2.0], [3.0, np.inf]]), np.ones(2)):
        with pytest.raises(GwnetError):
            blow_up(two_swap, two_swap, bad)


# --------------------------------------------------------------- blow_up

def test_blow_up_of_the_one_node_pair(one_node, two_swap):
    C = Coupling(np.array([[0.5, 0.5]]), one_node.mu, two_swap.mu)
    pair = blow_up(one_node, two_swap, C)
    assert pair.size == 2
    assert np.array_equal(pair.omega_xhat, np.ones((2, 2)))
    assert np.array_equal(pair.omega_yhat, two_swap.omega)
    assert np.array_equal(pair.mu_hat, [0.5, 0.5])
    assert pair.source_index.tolist() == [0, 0]
    assert pair.target_index.tolist() == [0, 1]
    assert not (pair.source_index.flags.writeable
                or pair.target_index.flags.writeable)
    assert np.bincount(pair.source_index).tolist() == [2]
    assert aligned_distance(pair) == pytest.approx(np.sqrt(0.5) / 2, abs=1e-15)


def test_blow_up_on_a_permutation_is_a_relabeling():
    rng = np.random.default_rng(3)
    X = random_network(rng, 4)
    perm = np.array([2, 0, 3, 1])
    Y = MeasureNetwork(X.omega[np.ix_(perm, perm)], X.mu[perm])
    mat = np.zeros((4, 4))
    mat[np.arange(4), np.argsort(perm)] = X.mu
    pair = blow_up(X, Y, Coupling(mat, X.mu, Y.mu))
    assert pair.size == 4
    assert np.array_equal(pair.omega_xhat, X.omega)
    assert np.array_equal(pair.omega_yhat, X.omega)
    assert aligned_distance(pair) == pytest.approx(0.0, abs=1e-12)


def test_blow_up_triangle_against_six_cycle():
    # each triangle node splits into two copies riding adjacent hexagon nodes
    tri = MeasureNetwork(np.array([[0.0, 1.0, 1.0],
                                   [1.0, 0.0, 1.0],
                                   [1.0, 1.0, 0.0]]),
                         np.full(3, 1 / 3))
    hex_omega = np.zeros((6, 6))
    for k in range(6):
        hex_omega[k, (k + 1) % 6] = 1.0
        hex_omega[k, (k - 1) % 6] = 1.0
    hexa = MeasureNetwork(hex_omega, np.full(6, 1 / 6))
    mat = np.zeros((3, 6))
    for i in range(3):
        mat[i, 2 * i] = 1 / 6
        mat[i, 2 * i + 1] = 1 / 6
    pair = blow_up(tri, hexa, Coupling(mat, tri.mu, hexa.mu))
    assert pair.size == 6
    assert np.bincount(pair.source_index).tolist() == [2, 2, 2]
    # expanded triangle: copies of one node are at distance 0 from each other
    expect_x = np.array([[0.0 if i // 2 == j // 2 else 1.0 for j in range(6)]
                         for i in range(6)])
    assert np.array_equal(pair.omega_xhat, expect_x)
    assert np.array_equal(pair.omega_yhat, hex_omega)
    assert np.allclose(pair.mu_hat, 1 / 6)


def test_blow_up_preserves_source_masses_exactly():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m = rng.integers(2, 6), rng.integers(2, 6)
        X = random_network(rng, n, uniform_mu=False)
        Y = random_network(rng, m, uniform_mu=False)
        C, _ = solve_gw(X, Y, GwParams(rng_seed=0))
        pair = blow_up(X, Y, C)
        row_mass = np.bincount(pair.source_index, weights=pair.mu_hat,
                               minlength=n)
        col_mass = np.bincount(pair.target_index, weights=pair.mu_hat,
                               minlength=m)
        assert np.abs(row_mass - X.mu).max() < 1e-15
        # the per-row renormalization touches columns only through dust
        assert np.abs(col_mass - Y.mu).max() < 1e-9


def test_blow_up_rejects_mismatched_coupling(one_node, two_swap):
    C = Coupling(np.diag(two_swap.mu), two_swap.mu, two_swap.mu)
    with pytest.raises(GwnetError):
        blow_up(one_node, two_swap, C)


def test_aligned_pairs_are_read_only():
    # glue hands every member the same omega_xhat and mu_hat, so a write
    # through one pair would change the others
    rng = np.random.default_rng(9)
    X = random_network(rng, 3)
    members = [random_network(rng, n) for n in (2, 4)]
    couplings = [solve_gw(X, Y)[0] for Y in members]
    glued = glue(X, members, couplings)
    assert glued[0].omega_xhat is glued[1].omega_xhat
    for pair in glued + [blow_up(X, members[1], couplings[1])]:
        for a in (pair.omega_xhat, pair.omega_yhat, pair.mu_hat,
                  pair.source_index, pair.target_index):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 99
    assert not np.any(glued[1].omega_xhat == 99)


def test_aligned_distance_matches_solver_distance():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = random_network(rng, 3, uniform_mu=False)
        Y = random_network(rng, 4, uniform_mu=False)
        C, report = solve_gw(X, Y, GwParams(restarts=4, rng_seed=0))
        pair = blow_up(X, Y, C)
        assert aligned_distance(pair) == pytest.approx(
            report.gw_distance, rel=1e-9, abs=1e-12)


@st.composite
def _couplings(draw):
    """Networks of 1-8 nodes with one mass down to 1e-12, and a random
    vertex coupling, mixed with the product coupling in some draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def network(n):
        mu = rng.random(n) + 0.1
        mu[draw(st.integers(0, n - 1))] = 10.0 ** draw(st.floats(-12.0, 0.0))
        return MeasureNetwork(rng.standard_normal((n, n)), mu / mu.sum())

    X = network(draw(st.integers(1, 8)))
    Y = network(draw(st.integers(1, 8)))
    t = draw(st.just(0.0) | st.floats(0.0, 1.0))
    C = (1 - t) * random_vertex(X.mu, Y.mu, rng) + t * np.outer(X.mu, Y.mu)
    return X, Y, Coupling(C, X.mu, Y.mu), t == 0.0


_TINY = np.array([1 - 1e-11, 1e-11])
_TWO_X = MeasureNetwork(np.array([[0.0, 1.0], [2.0, 3.0]]), _TINY)
_TWO_Y = MeasureNetwork(np.array([[1.0, 0.0], [0.0, -1.0]]), _TINY)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_couplings())
@example((_TWO_X, _TWO_Y, Coupling(np.diag(_TINY), _TINY, _TINY), True))
def test_property_blow_up_keeps_support_marginals_and_distortion(case):
    X, Y, C, vertex = case
    pair = blow_up(X, Y, C)
    assert pair.size == int(_support_mask(C.matrix).sum())
    row_mass = np.bincount(pair.source_index, weights=pair.mu_hat,
                           minlength=X.size)
    assert np.abs(row_mass - X.mu).max() <= 4 * np.finfo(float).eps
    if vertex:
        assert aligned_distance(pair) == pytest.approx(
            distortion_matrix(X, Y, C) / 2, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ block average

def test_block_average_is_the_block_mean(two_swap):
    X = MeasureNetwork(np.array([[0.0]]), np.array([1.0]))
    Y = MeasureNetwork(np.arange(4.0).reshape(2, 2), two_swap.mu)
    C = np.array([[0.5, 0.5]])
    params = FrechetParams(compress="to_seed_size", gw=GwParams(given=C))
    # the one node's block is all 2 x 2 copy pairs, of equal mass
    assert np.array_equal(frechet_gradient([Y], X, params).targets[0],
                          [[1.5]])
    assert np.array_equal(compressed_target(X, Y, C), [[1.5]])


def test_expansion_couplings_certify_zero_distance():
    rng = np.random.default_rng(6)
    X = random_network(rng, 3, uniform_mu=False)
    Y = random_network(rng, 4, uniform_mu=False)
    C, _ = solve_gw(X, Y, GwParams(rng_seed=0))
    pair = blow_up(X, Y, C)
    for net, expansion, coupling in (
            (X, pair.base_network(), expansion_coupling_source(X, pair)),
            (Y, MeasureNetwork(pair.omega_yhat, pair.mu_hat),
             expansion_coupling_target(Y, pair))):
        d = gw_distance(net, expansion, GwParams(given=coupling.matrix))
        # the squared distortion cancels to ~1e-16 of dust, so the
        # square root sits near 1e-8 rather than at zero
        assert d <= 1e-6


# ------------------------------------------------------- solve and align

def test_align_solves_and_expands():
    rng = np.random.default_rng(8)
    X = random_network(rng, 3)
    Y = random_network(rng, 4)
    params = GwParams(restarts=4, rng_seed=0)
    pair = geodesic_aligned(X, Y, params).pair
    C, report = solve_gw(X, Y, params)
    assert isinstance(pair, AlignedPair)
    assert pair.size == blow_up(X, Y, C).size
    assert report.converged
    assert aligned_distance(pair) == pytest.approx(
        report.gw_distance, rel=1e-9, abs=1e-12)


def test_align_accepts_a_precomputed_coupling(one_node, two_swap):
    C = Coupling(np.array([[0.5, 0.5]]), one_node.mu, two_swap.mu)
    _, pair = log_map(one_node, two_swap, coupling=C)
    # C is the only coupling of this pair, so a solve started there stays
    _, report = solve_gw(one_node, two_swap,
                         GwParams(given=C.matrix))
    assert report.iterations == 0
    assert report.gw_distance == pytest.approx(np.sqrt(0.5) / 2, abs=1e-15)
    assert aligned_distance(pair) == pytest.approx(report.gw_distance,
                                                   abs=1e-15)
    assert pair.size == 2


def test_align_blows_up_a_given_coupling_as_passed(two_swap):
    # a given interior coupling is not thinned: the product coupling of two
    # 2-node networks expands to all 4 entries
    X = two_swap
    Y = MeasureNetwork(np.array([[0.0, 2.0], [2.0, 0.0]]), two_swap.mu)
    C = Coupling(np.outer(X.mu, Y.mu), X.mu, Y.mu)
    _, pair = log_map(X, Y, coupling=C)
    assert pair.size == 4
    assert aligned_distance(pair) == pytest.approx(
        distortion_matrix(X, Y, C) / 2, abs=1e-12)


def test_a_coupling_of_other_measures_is_rejected(two_swap):
    # a valid coupling of (1/2, 1/2) and (0.9, 0.1), but Y is uniform: its
    # blow-up would carry mass 0.9 and 0.1 on Y's nodes
    X = two_swap
    Y = MeasureNetwork(np.array([[0.0, 2.0], [2.0, 0.0]]), two_swap.mu)
    C = Coupling(np.array([[0.45, 0.05], [0.45, 0.05]]), X.mu, [0.9, 0.1])
    with pytest.raises(GwnetError):
        blow_up(X, Y, C)
    with pytest.raises(GwnetError):
        log_map(X, Y, coupling=C)
