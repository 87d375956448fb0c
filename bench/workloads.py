"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a fixed batch of operations (ops) that go through the
public API of gwnet. The inputs of op i are drawn from numpy's Generator
seeded with (seed, workload tag, i) alone, so the first k ops of a batch do
not depend on the batch size: the traced run replays exactly the first ops
of the timed run.

Every op returns its raw outputs; `check` then verifies them cheaply,
without another distance solve, and derives the op's quality figures.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gwnet

EPS = np.finfo(float).eps

# Every solve stops after at most this many Frank-Wolfe iterations (the
# library default is 200). An op's cost is close to proportional to the
# iterations it runs; at a cap of 200 the few solves that reach it move a
# batch's cost by a fifth or more from one seed to the next. The cap still
# binds on many solves, and gw.cap_hit_frac reports how many.
FW_CAP = 30
GW = gwnet.GwParams(max_outer_iters=FW_CAP)


class CheckFailed(Exception):
    """The op returned, but one of its outputs is wrong."""


@dataclass(frozen=True)
class Outcome:
    """Quality figures of one op that passed its checks.

    gw_distance is a distance the op certifies (always an upper bound on the
    true distance, so lower is better); extra holds figures that only this
    workload has.
    """

    converged: bool
    gw_distance: float
    extra: dict


def _rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


# ---------------------------------------------------------------- pairs
#
# Mostly uniform, equal-size standard-normal pairs, on which every
# transport subproblem is an assignment problem, plus Dirichlet masses and
# unequal sizes that an assignment fast path cannot take. Op i has the class
# PAIR_MIX[i % len(PAIR_MIX)], so every batch has the same class shares.
# The latencies of the n = 40 ops form one cluster and those of the smaller
# ops others. 13 of every 20 ops are n = 40, so the median latency lies
# inside the n = 40 cluster; at half, it sat in the gap between clusters,
# where one op more or less on either side moves it far.

U10, U20, U40 = (10, 10, False), (20, 20, False), (40, 40, False)
D12, U12x18, D12x18 = (12, 12, True), (12, 18, False), (12, 18, True)
PAIR_MIX = {
    "full": (U40, U10, U40, U40, U20, U40, D12, U40, U40, U12x18,
             U40, U40, U10, U40, D12x18, U40, U40, D12, U40, U40),
    "tiny": ((4, 4, False), (5, 5, False), (4, 6, True)),
}


@dataclass(frozen=True)
class PairInput:
    x_path: str
    y_path: str
    out_path: str


def _normal_network(rng, n: int, dirichlet: bool) -> gwnet.MeasureNetwork:
    mu = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    return gwnet.MeasureNetwork(rng.standard_normal((n, n)), mu)


def pairs_inputs(seed: int, q: int, workdir: Path, scale: str) -> list:
    mix = PAIR_MIX[scale]
    out = []
    for i in range(q):
        n, m, dirichlet = mix[i % len(mix)]
        rng = _rng(seed, 1, i)
        X = _normal_network(rng, n, dirichlet)
        Y = _normal_network(rng, m, dirichlet)
        paths = [str(workdir / f"pair{i}_{s}.json") for s in ("x", "y", "mid")]
        gwnet.write_network(X, paths[0])
        gwnet.write_network(Y, paths[1])
        out.append(PairInput(*paths))
    return out


def pairs_op(inp: PairInput):
    X = gwnet.read_network(inp.x_path)
    Y = gwnet.read_network(inp.y_path)
    C, report = gwnet.solve_gw(X, Y, GW)
    v, pair = gwnet.log_map(X, Y, coupling=C)
    end = gwnet.exp_map(v)
    geodesic = gwnet.GeodesicRep(pair, gwnet.aligned_distance(pair))
    gwnet.write_network(gwnet.evaluate(geodesic, 0.5), inp.out_path)
    return X, Y, C, report, pair, end


def pairs_check(inp: PairInput, out) -> Outcome:
    X, Y, C, report, pair, end = out
    half = gwnet.distortion_matrix(X, Y, C) / 2.0
    if abs(report.gw_distance - half) > 1e-9 * max(half, 1e-300):
        raise CheckFailed(f"gw_distance {report.gw_distance!r} differs from "
                          f"distortion/2 {half!r}")
    aligned = gwnet.aligned_distance(pair)
    if aligned > half + 1e-9:
        raise CheckFailed(f"aligned_distance {aligned!r} exceeds "
                          f"distortion/2 {half!r}")
    # exp(log) rebuilds omega_yhat as omega_xhat + (omega_yhat - omega_xhat);
    # the two roundings bound the error by eps * (|xhat| + |yhat|)
    bound = EPS * (np.abs(pair.omega_xhat) + np.abs(pair.omega_yhat))
    if not np.all(np.abs(end.omega - pair.omega_yhat) <= bound):
        raise CheckFailed("exp_map(log_map) does not return omega_yhat")
    return Outcome(report.converged, report.gw_distance, {})


# ----------------------------------------------------------------- mean
#
# Fréchet means of two kinds in one batch. Most ops are uncompressed means
# of small random networks, whose base grows; every COMPRESS_EVERY-th op
# is a compressed block-model recovery, whose base stays at the seed size.
# The kind of op i depends on i alone, so every batch has the same shares.

MEAN_SHAPE = {"full": (5, 5, 8), "tiny": (3, 3, 4)}  # members, min, max size
COMPRESS_EVERY = {"full": 8, "tiny": 2}


@dataclass(frozen=True)
class CompressInput:
    spec: gwnet.SbmSpec
    rng_seed: int


def _mean_members(seed: int, i: int, scale: str) -> list:
    members, lo, hi = MEAN_SHAPE[scale]
    rng = _rng(seed, 2, i)
    sizes = rng.integers(lo, hi + 1, size=members)
    return [gwnet.MeasureNetwork(rng.random((n, n)), np.full(n, 1.0 / n))
            for n in sizes]


def _compress_input(seed: int, i: int, scale: str) -> CompressInput:
    rng = _rng(seed, 3, i)
    spec_seed, run_seed = (int(s) for s in rng.integers(2**31, size=2))
    if scale == "full":
        spec = gwnet.default_sbm_spec(rng_seed=spec_seed)
    else:
        b = np.arange(3)
        spec = gwnet.SbmSpec(block_sizes=(4,) * 3,
                             means=25.0 * ((2 * b[:, None] + b) % 3),
                             variance=5.0, rng_seed=spec_seed)
    return CompressInput(spec, run_seed)


def mean_inputs(seed: int, q: int, workdir: Path, scale: str) -> list:
    every = COMPRESS_EVERY[scale]
    return [_compress_input(seed, i, scale) if i % every == every - 1
            else _mean_members(seed, i, scale) for i in range(q)]


def mean_op(inp):
    if isinstance(inp, CompressInput):
        return compress_op(inp)
    result = gwnet.frechet_mean(inp, gwnet.FrechetParams(gw=GW))
    data = gwnet.vectorize_at_base(result.network, inp, GW)
    return result, data, gwnet.tangent_pca(data)


def mean_check(inp, out) -> Outcome:
    if isinstance(inp, CompressInput):
        return compress_check(inp, out)
    result, data, pca = out
    best = min(row[1] for row in result.trace)
    if result.loss != best:
        raise CheckFailed(f"loss {result.loss!r} is not the trace minimum "
                          f"{best!r}")
    net = result.network
    if not (np.all(np.isfinite(net.omega)) and np.all(np.isfinite(net.mu))):
        raise CheckFailed("mean has non-finite weights")
    total = float(np.sum(pca.explained_variance_ratios))
    if total > 1.0 + 1e-12:
        raise CheckFailed(f"PCA ratios sum to {total!r} > 1")
    # each row is a member's aligned difference from the mean: half its
    # weighted norm is the distance that alignment certifies
    norms2 = (data.vectors ** 2) @ data.weights
    dist = float(np.mean(np.sqrt(np.maximum(norms2, 0.0)) / 2.0))
    return Outcome(result.converged, dist, {"mean_loss": result.loss})


# The experiment's mean iteration may run 40 steps. A run whose couplings
# lock onto the wrong blocks (about one op in 130) can spend 35 s in
# backtracking line searches, 80 ops' worth, so whether a batch holds one
# decides its throughput. Runs that recover the blocks settle within 6
# steps; at most 6 keeps them as they are and bounds the others at about
# 3 s, still reported as not converged.
COMPRESS_MEAN_STEPS = 6


def compress_op(inp: CompressInput):
    # the experiment's own parameters, with both caps
    params = gwnet.FrechetParams(
        max_iters=COMPRESS_MEAN_STEPS, compress="to_seed_size",
        gw=gwnet.GwParams(restarts=2, rng_seed=inp.rng_seed,
                          max_outer_iters=FW_CAP))
    return gwnet.sbm_compression_experiment(inp.spec, n_runs=1,
                                            rng_seed=inp.rng_seed,
                                            params=params)


def compress_check(inp: CompressInput, report) -> Outcome:
    b = inp.spec.num_blocks
    run = report.runs[0]
    if run.recovered.shape != (b, b):
        raise CheckFailed(f"recovered shape {run.recovered.shape} is not the "
                          f"seed size {b}")
    # distance from the recovered network to means/2 under the identity
    # coupling of the relabeled blocks (uniform block measure)
    mu = np.full(b, 1.0 / b)
    dis2 = float(mu @ (run.recovered - report.target) ** 2 @ mu)
    return Outcome(run.converged, float(np.sqrt(dis2)) / 2.0,
                   {"block_dev": run.max_deviation})


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    op: object
    check: object
    batch: dict          # ops per batch, by scale


WORKLOADS = {
    "pairs": Workload(pairs_inputs, pairs_op, pairs_check,
                      {"full": 160, "tiny": 3}),
    "mean": Workload(mean_inputs, mean_op, mean_check,
                     {"full": 64, "tiny": 2}),
}
