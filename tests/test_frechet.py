import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gwnet.frechet
from gwnet import (Coupling, FrechetGradient, FrechetParams, GwParams,
                   GwnetError, MeasureNetwork, TangentVector, blow_up,
                   compressed_average, distortion_matrix, frechet_gradient,
                   frechet_mean, gw_distance, random_vertex, read_network,
                   solve_gw, tangent_pca, vectorize_at_base, write_network)
from gwnet.alignment import glue

from conftest import diagonal_start, random_network, uniform_network
from oracles import (compressed_target, frechet_loss, gw_objective,
                     inner_product, plain_copy_average)


def _example_pair(one_node, two_swap):
    """The blown-up one-node network and the two-node swap."""
    xhat = MeasureNetwork(np.ones((2, 2)), np.array([0.5, 0.5]))
    return xhat, two_swap


# -------------------------------------------------------------------- loss

def test_loss_at_a_member_of_a_singleton_is_zero():
    rng = np.random.default_rng(30)
    Z = random_network(rng, 4)
    assert frechet_loss([Z], Z, diagonal_start(Z)) <= 1e-12


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


# ---------------------------------------------------------------- gradient

def test_gradient_vanishes_at_a_singleton_member():
    rng = np.random.default_rng(32)
    X = random_network(rng, 4)
    grad = frechet_gradient([X], X, FrechetParams(gw=diagonal_start(X)))
    assert not grad.gradient.any()
    assert grad.loss <= 1e-12
    assert grad.base.size == X.size


def test_gradient_toward_a_nearby_target_is_twice_the_difference():
    rng = np.random.default_rng(33)
    X = random_network(rng, 4)
    Y = X.with_omega(X.omega + 0.05 * rng.standard_normal((4, 4)))
    grad = frechet_gradient([Y], X, FrechetParams(gw=diagonal_start(X)))
    # the identity coupling is locally optimal here, so no expansion happens
    assert grad.base.size == 4
    assert np.allclose(grad.gradient, 2.0 * (X.omega - Y.omega), atol=1e-12)


def test_gradient_vanishes_at_the_entrywise_mean():
    rng = np.random.default_rng(34)
    A = random_network(rng, 4)
    members = [A.with_omega(A.omega + 0.03 * rng.standard_normal((4, 4)))
               for _ in range(3)]
    mean_omega = np.mean([m.omega for m in members], axis=0)
    grad = frechet_gradient(members, A.with_omega(mean_omega),
                            FrechetParams(gw=diagonal_start(A)))
    assert grad.base.size == 4
    assert not grad.gradient.any()


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
        TangentVector(grad.base, grad.gradient),
        TangentVector(grad.base, v)) / 4.0
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
    grown = frechet_gradient(S[:1], X, warm=[product]).base.size
    for warm, count in (([product], 1), ([product] * 3, 3)):
        with pytest.raises(GwnetError, match=f"got {count} warm starts for "
                                             "2 members"):
            frechet_gradient(S, X, params, warm=warm)
    for warm in ([product, product[:3]],
                 [product, np.full((grown, 3), 1 / (3 * grown))]):
        with pytest.raises(GwnetError, match="does not match marginals"):
            frechet_gradient(S, X, params, warm=warm)


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


# ------------------------------------------------------------- glued base

def _size_bound(X, S, couplings):
    """Nodes of the common refinement of the couplings' blow-ups, at most."""
    return X.size + sum(blow_up(X, Y, C).size - X.size
                        for Y, C in zip(S, couplings))


def _distances(grad):
    """Each member's distance its alignment certifies: half the distortion
    of its diagonal coupling from the returned base."""
    mu, omega = grad.base.mu, grad.base.omega
    return [float(np.sqrt(mu @ ((T - omega) ** 2) @ mu)) / 2.0
            for T in grad.targets]


def test_a_constant_base_does_not_multiply():
    # a constant base makes every alignment's objective flat, so each solve
    # keeps its full product support; the base grows by 7 per member
    rng = np.random.default_rng(1)
    X = MeasureNetwork([[0.7]], [1.0])
    S = [MeasureNetwork(rng.standard_normal((8, 8)), rng.dirichlet(np.ones(8)))
         for _ in range(3)]
    grad = frechet_gradient(S, X)
    assert grad.base.size == 22
    assert vectorize_at_base(X, S).base.size == 22
    couplings = [solve_gw(X, Y, GwParams())[0] for Y in S]
    assert grad.base.size <= _size_bound(X, S, couplings)


@st.composite
def _collections(draw):
    """A base and 1-5 members of 1-12 nodes: asymmetric standard normal
    weights at a drawn scale, uniform or Dirichlet masses; and an order of
    the members."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def network():
        n = draw(st.integers(1, 12))
        mu = rng.dirichlet(np.ones(n)) if draw(st.booleans()) \
            else np.full(n, 1.0 / n)
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        return MeasureNetwork(scale * rng.standard_normal((n, n)), mu)

    X = network()
    S = [network() for _ in range(draw(st.integers(1, 5)))]
    return X, S, draw(st.permutations(range(len(S))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_collections())
def test_property_glued_base_keeps_every_alignment(case):
    X, S, order = case
    params = GwParams(max_outer_iters=30)
    solved = [solve_gw(X, Y, params) for Y in S]
    grad = frechet_gradient(S, X, FrechetParams(gw=params))
    for (_, report), d in zip(solved, _distances(grad)):
        assert d == pytest.approx(report.gw_distance, rel=1e-9, abs=0)
    assert grad.loss == np.mean(np.square(_distances(grad)))
    for Y, C in zip(S, grad.couplings):
        Coupling(C, grad.base.mu, Y.mu)
    couplings = [C for C, _ in solved]
    assert grad.base.size <= _size_bound(X, S, couplings)
    # the base is the glue of the members' own solves: X's weights on
    # copies of its nodes, whose masses sum to the node's
    pair = glue(X, S, couplings)[0]
    assert np.array_equal(grad.base.omega, pair.omega_xhat)
    src = pair.source_index
    assert np.array_equal(grad.base.omega, X.omega[np.ix_(src, src)])
    copies = np.bincount(src, minlength=X.size)
    mass = np.bincount(src, weights=grad.base.mu, minlength=X.size)
    assert np.all(np.abs(mass - X.mu)
                  <= 2 * copies * np.finfo(float).eps * X.mu)
    # and it does not depend on the members' order
    again = frechet_gradient([S[k] for k in order], X,
                             FrechetParams(gw=params))
    assert np.array_equal(again.base.omega, grad.base.omega)
    assert np.array_equal(again.base.mu, grad.base.mu)
    for T, k in zip(again.targets, order):
        assert np.array_equal(T, grad.targets[k])


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
    assert result.iterations == 0
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
    assert result.iterations == 1


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


def test_mean_counts_the_steps_taken_whatever_the_cap():
    rng = np.random.default_rng(37)
    A = random_network(rng, 3)
    B = A.with_omega(A.omega + 0.05 * rng.standard_normal((3, 3)))
    for cap in (1, 2, 100):
        result = frechet_mean([A, B], FrechetParams(max_iters=cap,
                                                    gw=diagonal_start(A)))
        assert result.converged
        assert result.iterations == len(result.trace) - 1 == 1, cap


def test_mean_that_never_becomes_stationary_is_not_converged(monkeypatch):
    rng = np.random.default_rng(45)
    X = random_network(rng, 3)

    def flat(S, Z, params=None, warm=None):
        # the loss never moves, yet the gradient never vanishes
        return FrechetGradient(gradient=np.ones((3, 3)),
                               base=Z, targets=(), loss=1.0, couplings=())

    monkeypatch.setattr(gwnet.frechet, "frechet_gradient", flat)
    result = frechet_mean([X], FrechetParams(max_iters=10))
    assert not result.converged
    assert result.iterations == 10
    assert len(result.trace) == 11


def test_mean_of_mixed_sizes_returns_the_last_iterate():
    rng = np.random.default_rng(38)
    S = [random_network(rng, 3), random_network(rng, 4)]
    result = frechet_mean(S, FrechetParams(max_iters=30))
    last = result.trace[-1]
    assert result.loss == last[1]
    assert result.network.size == last[2]
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


def test_mean_of_read_back_members_is_the_same_mean(tmp_path):
    # the float sum of a uniform measure on 6 or 7 nodes is not exactly 1,
    # so a member whose measure is divided by it again on reading changes
    # its last bits, and the mean's near-tied alignments fork on them
    for seed in range(5):
        rng = np.random.default_rng(seed)
        members = [MeasureNetwork(rng.random((n, n)), np.full(n, 1.0 / n))
                   for n in rng.integers(5, 9, size=5)]
        copies = []
        for k, Y in enumerate(members):
            write_network(Y, tmp_path / f"m{k}.json")
            copies.append(read_network(tmp_path / f"m{k}.json"))
        a, b = frechet_mean(members), frechet_mean(copies)
        assert a.loss == b.loss, seed
        assert np.array_equal(a.network.omega, b.network.omega), seed
        assert np.array_equal(a.network.mu, b.network.mu), seed


@st.composite
def _mean_cases(draw):
    """2-5 members of 1-8 nodes with standard normal weights, uniform or
    Dirichlet masses; a seed that is the first member (None), an integer
    size or a drawn network; and a cap of 1-10 mean steps. Every count is
    drawn uniformly by the case's generator: the larger collections, where
    cold re-solves rise, are as common as the small ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def network():
        n = rng.integers(1, 9)
        mu = rng.dirichlet(np.ones(n)) if rng.random() < 0.5 \
            else np.full(n, 1.0 / n)
        return MeasureNetwork(rng.standard_normal((n, n)), mu)

    S = [network() for _ in range(rng.integers(2, 6))]
    kind = rng.integers(3)
    seed = None if kind == 0 else int(rng.integers(1, 9)) if kind == 1 \
        else network()
    return S, seed, int(rng.integers(1, 11))


@pytest.mark.parametrize("compress", ["none", "to_seed_size"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_mean_cases())
def test_property_mean_loss_never_rises(compress, case):
    # each step lands on the loss minimizer for the current couplings, the
    # next solves start from them, and Frank-Wolfe never raises an
    # objective; a rise above 1e-9 of the row before, the scale of the
    # slivers glue drops, fails
    S, seed, cap = case
    params = FrechetParams(max_iters=cap, compress=compress,
                           gw=GwParams(max_outer_iters=30))
    result = frechet_mean(S, params, seed)
    losses = [row[1] for row in result.trace]
    for it, (before, after) in enumerate(zip(losses, losses[1:]), 1):
        assert after <= before + 1e-9 * before, (it, before, after)
    assert result.loss == losses[-1]
    assert result.network.size == result.trace[-1][2]


def _uncompressed_means(count=12):
    """Seeded uncompressed means of 5 members with 5-8 nodes, uniform
    measures and weights in [0, 1)."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        S = [MeasureNetwork(rng.random((n, n)), np.full(n, 1.0 / n))
             for n in rng.integers(5, 9, size=5)]
        yield seed, frechet_mean(S)


def test_mean_keeps_the_dataset_its_loss_certifies():
    # each row is a member's aligned difference from the mean, and half its
    # weighted norm is the distance that alignment certifies
    for seed, result in _uncompressed_means():
        grad = result.gradient
        assert grad.base is result.network and grad.loss == result.loss
        assert grad.vectors.shape == (5, result.network.size ** 2)
        halves2 = (grad.vectors ** 2) @ grad.weights / 4.0
        assert float(np.mean(halves2)) == pytest.approx(
            result.loss, rel=1e-13, abs=0), seed


def test_a_converged_mean_is_the_mean_of_its_rows():
    # stationary: |g|^2_mu <= STATIONARY_TOL * loss, and the mean row is -g/2
    converged = 0
    for seed, result in _uncompressed_means():
        if not result.converged:
            continue
        converged += 1
        grad = result.gradient
        row = grad.vectors.mean(axis=0)
        bound = gwnet.frechet.STATIONARY_TOL * result.loss / 4.0
        assert float((row ** 2) @ grad.weights) <= bound, seed
        # PCA at the mean centers on that row, on the mean's own alignment
        pca = tangent_pca(grad)
        assert pca.base is result.network
        assert np.array_equal(pca.mean, row), seed
    assert converged >= 10


# ------------------------------------------------------------- compression

def _compressed(given=None, **gw) -> FrechetParams:
    return FrechetParams(compress="to_seed_size",
                         gw=GwParams(given=given, **gw))


def test_compress_log_of_the_one_node_pair(two_swap):
    X = MeasureNetwork(np.array([[0.0]]), np.array([1.0]))
    C = np.array([[0.5, 0.5]])
    target = frechet_gradient([two_swap], X, _compressed(C)).targets[0]
    # the aligned difference [[0,1],[1,0]] block-averages to 0.5
    assert np.array_equal(target - X.omega, [[0.5]])
    avg = compressed_average(X, two_swap, _compressed(C))
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
    grad = frechet_gradient([Y], X, _compressed(mat))
    # the solve stays on the block coupling, where the difference is
    # constant within each block, so averaging is exact
    assert np.array_equal(grad.couplings[0], mat)
    assert np.allclose(grad.targets[0] - X0, M - X0, atol=1e-15)


def test_compressed_target_weights_the_copies_by_mass():
    # the one node has copies of masses 1/4 and 3/4; the plain mean over
    # its four copy pairs would give 0.5
    X = MeasureNetwork(np.array([[0.0]]), np.array([1.0]))
    Y = MeasureNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]),
                       np.array([0.25, 0.75]))
    C = np.array([[0.25, 0.75]])
    assert np.array_equal(
        frechet_gradient([Y], X, _compressed(C)).targets[0], [[0.375]])
    assert np.array_equal(compressed_average(X, Y, _compressed(C)).omega,
                          [[0.1875]])


@st.composite
def _compressed_cases(draw):
    """A base and 1-3 members of 1-8 nodes, with standard normal weights
    and uniform or Dirichlet masses; each solve starts from the product
    coupling or a random vertex and runs 1-30 FW steps, so the solved
    couplings are vertices or interior."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dirichlet = draw(st.booleans())

    def network():
        n = draw(st.integers(1, 8))
        mu = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
        return MeasureNetwork(rng.standard_normal((n, n)), mu)

    X = network()
    S = [network() for _ in range(draw(st.integers(1, 3)))]
    warm = ([random_vertex(X.mu, Y.mu, rng) for Y in S]
            if draw(st.booleans()) else None)
    return X, S, warm, draw(st.integers(1, 30))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_compressed_cases())
def test_property_compressed_targets_are_weighted_block_averages(case):
    X, S, warm, cap = case
    grad = frechet_gradient(S, X, _compressed(max_outer_iters=cap), warm)
    assert grad.base is X
    for Y, C, T in zip(S, grad.couplings, grad.targets):
        expected = compressed_target(X, Y, C)
        assert np.abs(T - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(grad.gradient,
                          2.0 * (X.omega - np.mean(grad.targets, axis=0)))
    # the loss is the mean squared distance the solves certify
    half = [distortion_matrix(X, Y, C) / 2 for Y, C in zip(S, grad.couplings)]
    assert grad.loss == pytest.approx(np.mean(np.square(half)), rel=1e-9,
                                      abs=1e-15)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_compressed_cases(), st.integers(0, 2**32 - 1), st.floats(-6.0, 0.0))
def test_property_compressed_target_is_the_best_base_for_its_coupling(
        case, seed, log_eps):
    # with the coupling fixed, the squared distortion is a sum over base
    # node pairs (i, k) of a quadratic in the base weight there, least at
    # the mass-weighted copy average; squared distortions compare within
    # the 1e-12 max(1, const) allowance that gw gives a radicand, as the
    # square root of a rounding-level radicand is far larger
    X, S, warm, cap = case
    grad = frechet_gradient(S, X, _compressed(max_outer_iters=cap), warm)
    rng = np.random.default_rng(seed)
    for Y, C, T in zip(S, grad.couplings, grad.targets):
        best = gw_objective(T, Y.omega, C)
        allowance = 1e-12 * max(1.0, X.mu @ T ** 2 @ X.mu
                                + Y.mu @ Y.omega ** 2 @ Y.mu)
        moved = T + 10.0 ** log_eps * rng.standard_normal(T.shape)
        for W in (moved, plain_copy_average(X, Y, C)):
            assert best <= gw_objective(W, Y.omega, C) + allowance


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
    for size in (0, -1, 2.5, float("nan"), "3", True):
        with pytest.raises(GwnetError):
            frechet_mean([two_swap], seed=size)
    for gw in (None, {}, "default", {"max_outer_iters": 30}):
        with pytest.raises(GwnetError, match="gw must be a GwParams"):
            FrechetParams(gw=gw)
