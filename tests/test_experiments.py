import itertools
from dataclasses import fields

import numpy as np
import pytest

from gwnet import (FrechetParams, GwParams, GwnetError, SbmSpec,
                   asymmetry_sweep, default_sbm_spec, generate_sbm,
                   sbm_compression_experiment, support_size_sweep)
from gwnet import experiments
from gwnet.experiments import _best_block_permutation

from oracles import half_sample_block_means, relabeled_gap


# ------------------------------------------------------------------- specs

def test_spec_validation():
    with pytest.raises(GwnetError):
        SbmSpec(block_sizes=(), means=np.zeros((0, 0)))
    with pytest.raises(GwnetError):
        SbmSpec(block_sizes=(2, 0), means=np.zeros((2, 2)))
    with pytest.raises(GwnetError):
        SbmSpec(block_sizes=(2, 2), means=np.zeros((3, 3)))
    with pytest.raises(GwnetError):
        SbmSpec(block_sizes=(2.5, 3), means=np.zeros((2, 2)))
    with pytest.raises(GwnetError):
        SbmSpec(block_sizes=(2,), means=[[1.0]], variance=-1.0)
    with pytest.raises(GwnetError):
        SbmSpec(block_sizes=(2,), means=[[1.0]], variance=float("nan"))
    with pytest.raises(GwnetError, match="variance"):
        SbmSpec(block_sizes=(2,), means=[[1.0]], variance=float("inf"))
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(GwnetError, match="means"):
            SbmSpec(block_sizes=(2, 2), means=[[bad, 1.0], [1.0, 1.0]])


def test_default_spec_shape_and_values():
    spec = default_sbm_spec()
    assert spec.block_sizes == (20,) * 5
    assert spec.num_nodes == 100
    assert spec.variance == 5.0
    assert sorted(np.unique(spec.means)) == [0.0, 25.0, 50.0, 75.0, 100.0]
    # every row and column hits every value once
    for k in range(5):
        assert sorted(spec.means[k]) == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert sorted(spec.means[:, k]) == [0.0, 25.0, 50.0, 75.0, 100.0]
    assert not np.array_equal(spec.means, spec.means.T)


# -------------------------------------------------------------- generation

def test_noiseless_draws_are_block_constant_up_to_shuffling():
    means = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = SbmSpec(block_sizes=(3, 2), means=means, variance=0.0, rng_seed=5)
    net = generate_sbm(spec)
    assert net.size == 5
    assert np.allclose(net.mu, 0.2)
    values, counts = np.unique(net.omega, return_counts=True)
    assert set(values) == {1.0, 2.0, 3.0, 4.0}
    # 3x3 block of ones, two 3x2 cross blocks, 2x2 block of fours
    assert dict(zip(values, counts)) == {1.0: 9, 2.0: 6, 3.0: 6, 4.0: 4}


def test_generation_is_deterministic_in_the_seed():
    spec = default_sbm_spec(rng_seed=3)
    a = generate_sbm(spec)
    b = generate_sbm(spec)
    assert np.array_equal(a.omega, b.omega)
    c = generate_sbm(default_sbm_spec(rng_seed=4))
    assert not np.array_equal(a.omega, c.omega)


def test_single_block_entries_match_the_law():
    # 20 nodes, one block: 400 iid draws at mean 2, variance 5. The sample
    # mean lands within 4 sigma/sqrt(400) = 0.447 essentially always.
    spec = SbmSpec(block_sizes=(20,), means=[[2.0]], variance=5.0, rng_seed=7)
    net = generate_sbm(spec)
    assert abs(net.omega.mean() - 2.0) < 0.447
    assert abs(net.omega.var() - 5.0) < 1.5


# ------------------------------------------------------------- compression

def test_noiseless_two_block_recovery_is_exact():
    means = np.array([[4.0, 1.0], [2.0, 3.0]])
    spec = SbmSpec(block_sizes=(4, 4), means=means, variance=0.0, rng_seed=0)
    report = sbm_compression_experiment(spec, n_runs=2, rng_seed=0)
    assert np.array_equal(report.target, means / 2.0)
    assert report.pass_count == 2
    for run in report.runs:
        assert run.max_deviation <= 1e-9
        assert run.converged


def test_single_block_compression_is_exact():
    spec = SbmSpec(block_sizes=(6,), means=[[2.0]], variance=0.0, rng_seed=1)
    report = sbm_compression_experiment(spec, n_runs=1, rng_seed=0)
    run = report.runs[0]
    assert run.recovered.shape == (1, 1)
    assert run.max_deviation <= 1e-12
    assert run.passed


def test_noisy_run_recovers_the_means_to_sampling_accuracy():
    # a 20-node-per-block draw leaves ~0.06 of standard error per block
    # mean, so 0.25 is a loose but meaningful ceiling; the single shot
    # without iteration is off by the full mean scale
    spec = default_sbm_spec(rng_seed=0)
    report = sbm_compression_experiment(spec, n_runs=1, rng_seed=0)
    run = report.runs[0]
    assert run.max_deviation < 0.25
    assert run.single_shot_max_deviation > 5.0
    assert run.recovered.shape == (5, 5)
    # what remains is the draw's own noise: the recovered matrix is half
    # the sample block means of the network run 0 drew
    oracle = half_sample_block_means(generate_sbm(spec).omega)
    assert relabeled_gap(run.recovered, oracle) <= 1e-9


def test_the_experiment_runs_a_compressed_mean_whatever_params_say():
    # an uncompressed mean's base grows, and the top-left block of a grown
    # base recovers nothing (a max_deviation of 24.7 here)
    spec = SbmSpec((4, 4, 4), means=[[0, 25, 50], [50, 0, 25], [25, 50, 0]],
                   variance=1, rng_seed=3)
    none, seed_size = (
        sbm_compression_experiment(
            spec, n_runs=2, params=FrechetParams(
                max_iters=10, compress=compress, gw=GwParams(restarts=2))).runs
        for compress in ("none", "to_seed_size"))
    for a, b in zip(none, seed_size, strict=True):
        assert a.max_deviation < 1.0
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), \
                f.name


@pytest.mark.parametrize("n_runs, bound", [
    (0, 0.1), (-1, 0.1), (2.5, 0.1), ("2", 0.1), (1, float("nan")),
    (1, -0.1), (1, "0.1")])
def test_sbm_experiment_rejects_bad_counts_and_bounds(n_runs, bound):
    spec = SbmSpec(block_sizes=(2,), means=[[1.0]])
    with pytest.raises(GwnetError):
        sbm_compression_experiment(spec, n_runs=n_runs, bound=bound)


def test_sbm_experiment_rejects_more_than_nine_blocks_before_drawing(
        monkeypatch):
    drawn = []

    def draw(spec):
        drawn.append(spec.num_blocks)
        raise RuntimeError("drawn")

    monkeypatch.setattr(experiments, "generate_sbm", draw)
    spec = SbmSpec(block_sizes=(1,) * 10, means=np.zeros((10, 10)))
    with pytest.raises(GwnetError, match="at most 9 blocks, got 10"):
        sbm_compression_experiment(spec, n_runs=1)
    assert drawn == []
    spec = SbmSpec(block_sizes=(1,) * 9, means=np.zeros((9, 9)))
    with pytest.raises(RuntimeError, match="drawn"):
        sbm_compression_experiment(spec, n_runs=1)
    assert drawn == [9]


@pytest.mark.parametrize("call", [
    lambda: GwParams(rng_seed=-1),
    lambda: SbmSpec(block_sizes=(2,), means=[[1.0]], rng_seed=-1),
    lambda: support_size_sweep([3], 1, rng_seed=-1),
    lambda: asymmetry_sweep("diagonal", (0.5,), 1, rng_seed=-1),
    lambda: sbm_compression_experiment(
        SbmSpec(block_sizes=(2,), means=[[1.0]]), n_runs=1, rng_seed=-1),
])
def test_a_negative_seed_is_refused_before_drawing(call):
    # numpy's seeding would raise a bare ValueError at the first draw
    with pytest.raises(GwnetError, match="rng_seed must be at least 0"):
        call()


def test_best_block_permutation_is_the_first_best_relabeling():
    rng = np.random.default_rng(31)
    # B = 8 spans several scoring chunks; {0, 1, 2} entries make ties
    for B in [1, 2, 3, 4, 5, 8] + [2, 3, 4, 5] * 20:
        target = rng.integers(0, 3, (B, B)).astype(float)
        recovered = (rng.integers(0, 3, (B, B)).astype(float) if B < 6
                     else target[::-1, ::-1] + rng.random((B, B)))
        perm, dev = _best_block_permutation(recovered, target)
        assert dev == relabeled_gap(recovered, target)
        first = next(
            p for p in itertools.permutations(range(B))
            if np.max(np.abs(recovered[np.ix_(p, p)] - target)) == dev)
        assert perm == first


# ------------------------------------------------------------------ sweeps

def test_support_sweep_rows_and_bound():
    rows = support_size_sweep(sizes=(3, 5), trials=3, rng_seed=0)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"n", "trial", "support_size", "ratio"}
        assert row["ratio"] == row["support_size"] / (2.0 * row["n"])
        assert row["support_size"] >= row["n"]
    # a solve may end on an interior coupling, so individual rows may
    # exceed the vertex bound; the typical run does not
    for n in (3, 5):
        sizes = [r["support_size"] for r in rows if r["n"] == n]
        assert np.median(sizes) <= 2 * n - 1


@pytest.mark.parametrize("mode", ["diagonal", "antisymmetric"])
def test_asymmetry_sweep_schema_and_determinism(mode):
    rows = asymmetry_sweep(mode, alphas=(0.0, 1.0), n_seeds=1,
                           sizes=(4, 4), rng_seed=0)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"mode", "alpha", "seed", "final_loss",
                            "final_size", "iterations", "converged"}
        assert row["mode"] == mode
        assert np.isfinite(row["final_loss"])
    again = asymmetry_sweep(mode, alphas=(0.0, 1.0), n_seeds=1,
                            sizes=(4, 4), rng_seed=0)
    assert [r["final_loss"] for r in rows] == [r["final_loss"] for r in again]


def test_asymmetry_sweep_rejects_unknown_modes():
    with pytest.raises(GwnetError):
        asymmetry_sweep("offdiagonal", alphas=(0.5,), n_seeds=1)


@pytest.mark.parametrize("sizes, trials", [
    ([2.5], 1), ([3], -1), ([3], 0), ([0], 1), ([3], 1.0), (["3"], 1)])
def test_support_sweep_rejects_bad_counts(sizes, trials):
    with pytest.raises(GwnetError):
        support_size_sweep(sizes, trials)


@pytest.mark.parametrize("sizes, n_seeds", [
    ((3, 3), 0), ((3, 3), -1), ((3, 3), 1.5), ((2.5, 3), 1), ((3, 0), 1),
    ((5,), 1), ((5, 5, 5), 1)])
def test_asymmetry_sweep_rejects_bad_counts(sizes, n_seeds):
    with pytest.raises(GwnetError):
        asymmetry_sweep("diagonal", alphas=(0.5,), n_seeds=n_seeds,
                        sizes=sizes)
