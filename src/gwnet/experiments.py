"""Seeded experiment harnesses: block-model compression, coupling support
growth, and asymmetry sweeps for the mean iteration.

All randomness flows through numpy's seeded Generator, so every table is
reproducible bit for bit from (spec, seed) within this implementation.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .networks import GwnetError, MeasureNetwork, check_count
from .gw import GwParams, solve_gw
from .alignment import support_size
from .frechet import (FrechetParams, compressed_average, frechet_mean)


@dataclass(frozen=True)
class SbmSpec:
    """Block model with Gaussian weights.

    Weights between block i and block j are drawn from a normal law with
    mean means[i, j] and the given variance (negative draws are kept).
    Node order is shuffled by a seeded permutation and the node measure is
    uniform.
    """

    block_sizes: tuple[int, ...]
    means: np.ndarray
    variance: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        sizes = tuple(check_count(s, "block size", 1)
                      for s in self.block_sizes)
        if not sizes:
            raise GwnetError("block_sizes must not be empty")
        means = np.asarray(self.means, dtype=float)
        B = len(sizes)
        if means.shape != (B, B):
            raise GwnetError(f"means must be {B}x{B}, got {means.shape}")
        if not np.isfinite(means).all():
            raise GwnetError("means must be finite")
        # written so that NaN fails too
        if not 0 <= self.variance < np.inf:
            raise GwnetError(
                f"variance must be finite and nonnegative, got {self.variance}")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "means", means)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def num_nodes(self) -> int:
        return sum(self.block_sizes)


def default_sbm_spec(rng_seed: int = 0) -> SbmSpec:
    """Five blocks of 20 nodes, variance 5, asymmetric block means.

    Block means take every value in {0, 25, 50, 75, 100}; the pattern
    means[i, j] = 25 * ((2 i + j) mod 5) makes every row and every column
    a distinct permutation of those values, with means[i, j] != means[j, i]
    off the skew diagonal.
    """
    i, j = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    means = 25.0 * ((2 * i + j) % 5)
    return SbmSpec(block_sizes=(20,) * 5, means=means, variance=5.0,
                   rng_seed=rng_seed)


def generate_sbm(spec: SbmSpec) -> MeasureNetwork:
    """Draw one network from the block model, nodes shuffled."""
    rng = np.random.default_rng(spec.rng_seed)
    membership = np.repeat(np.arange(spec.num_blocks), spec.block_sizes)
    mean_field = spec.means[np.ix_(membership, membership)]
    n = spec.num_nodes
    omega = mean_field + np.sqrt(spec.variance) * rng.standard_normal((n, n))
    perm = rng.permutation(n)
    omega = omega[np.ix_(perm, perm)]
    return MeasureNetwork(omega, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class SbmRun:
    seed: int
    recovered: np.ndarray         # B x B, block rows permuted to match
    max_deviation: float
    passed: bool
    single_shot_max_deviation: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SbmReport:
    target: np.ndarray            # means / 2
    runs: tuple[SbmRun, ...]
    pass_count: int
    bound: float


def _best_block_permutation(recovered: np.ndarray,
                            target: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Block labels are arbitrary; find the relabeling with the smallest
    worst-entry deviation from the target."""
    best_perm, best_dev = None, np.inf
    relabelings = itertools.permutations(range(target.shape[0]))
    # scored 5040 (7!) at a time, so that memory stays small at large B
    while chunk := list(itertools.islice(relabelings, 5040)):
        perms = np.array(chunk)
        devs = np.abs(recovered[perms[:, :, None], perms[:, None, :]]
                      - target).max(axis=(1, 2))
        k = int(devs.argmin())
        # the first strict minimum in the order of the relabelings
        if devs[k] < best_dev:
            best_perm, best_dev = chunk[k], float(devs[k])
    return best_perm, best_dev


def sbm_compression_experiment(spec: SbmSpec, n_runs: int = 20,
                               bound: float = 0.1, rng_seed: int = 0,
                               params: FrechetParams | None = None) -> SbmReport:
    """Recover half the block means by compressed averaging with a zero
    seed-size network.

    Each run draws a fresh network from the spec, then computes the
    compressed mean of {zeros(B), Y}. The all-zeros member makes every
    coupling to it equally good, so the iteration is started from a seeded
    random B-node network; once the couplings lock onto the blocks, one
    full step lands exactly on half the empirical block means. Run r draws
    its network at seed spec.rng_seed + 1000 * r and runs params with
    gw.rng_seed set to rng_seed + r (seed network and solver restarts).

    Each run reports the deviation from the population target means/2
    after the best block relabeling, plus the deviation of the
    non-iterative single-shot average for comparison. `max_deviation` and
    `passed` are measured against means/2, so they include the draw's
    sampling noise: with blocks of size s and variance v every recovered
    entry carries a standard error of sqrt(v) / s / 2, about 0.056 at the
    default spec.
    """
    n_runs = check_count(n_runs, "n_runs", 1)
    if not (isinstance(bound, numbers.Real) and bound >= 0):
        raise GwnetError(f"bound must be a number >= 0, got {bound!r}")
    B = spec.num_blocks
    target = spec.means / 2.0
    zeros = MeasureNetwork(np.zeros((B, B)), np.full(B, 1.0 / B))
    runs = []
    for r in range(n_runs):
        run_seed = rng_seed + r
        draw = SbmSpec(spec.block_sizes, spec.means, spec.variance,
                       rng_seed=spec.rng_seed + 1000 * r)
        Y = generate_sbm(draw)
        p = params or FrechetParams(
            max_iters=40, compress="to_seed_size", gw=GwParams(restarts=2))
        p = replace(p, gw=replace(p.gw, rng_seed=run_seed))
        result = frechet_mean([zeros, Y], p, seed=B)
        perm, dev = _best_block_permutation(result.network.omega, target)
        single = compressed_average(zeros, Y, p)
        _, single_dev = _best_block_permutation(single.omega, target)
        idx = np.array(perm)
        runs.append(SbmRun(seed=run_seed,
                           recovered=result.network.omega[np.ix_(idx, idx)],
                           max_deviation=dev,
                           passed=dev <= bound,
                           single_shot_max_deviation=single_dev,
                           iterations=result.iterations,
                           converged=result.converged))
    return SbmReport(target=target, runs=tuple(runs),
                     pass_count=sum(r.passed for r in runs), bound=bound)


def support_size_sweep(sizes, trials: int, rng_seed: int = 0) -> list[dict]:
    """Support sizes of couplings solved at the default GwParams() between
    pairs of standard normal weight networks with uniform measures.

    Rows: n, trial, support_size, ratio (support divided by 2n). The
    support is the node count of the coupling's blow-up.
    """
    sizes = [check_count(n, "size", 1) for n in sizes]
    trials = check_count(trials, "trials", 1)
    rng = np.random.default_rng(rng_seed)
    rows = []
    for n in sizes:
        mu = np.full(n, 1.0 / n)
        for trial in range(trials):
            X = MeasureNetwork(rng.standard_normal((n, n)), mu)
            Y = MeasureNetwork(rng.standard_normal((n, n)), mu)
            coupling, _ = solve_gw(X, Y)
            s = support_size(coupling)
            rows.append({"n": n, "trial": trial, "support_size": s,
                         "ratio": s / (2.0 * n)})
    return rows


def asymmetry_sweep(mode: str, alphas, n_seeds: int,
                    sizes: tuple[int, int] = (10, 10),
                    rng_seed: int = 0) -> list[dict]:
    """Mean iteration under growing asymmetry.

    mode "diagonal": strip the diagonals of two random networks and add
    them back scaled by alpha. mode "antisymmetric": split each into
    symmetric and antisymmetric parts and scale the antisymmetric part by
    alpha. For each alpha the mean of the pair (at most 30 steps) is
    computed from n_seeds random seed networks, the s-th drawn at seed
    rng_seed + 7919 * s; rows record the final loss, final base size,
    iteration count and convergence flag.
    """
    if mode not in ("diagonal", "antisymmetric"):
        raise GwnetError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(rng_seed)
    n1, n2 = (check_count(n, "size", 1) for n in sizes[:2])
    n_seeds = check_count(n_seeds, "n_seeds", 1)
    X1 = rng.random((n1, n1))
    X2 = rng.random((n2, n2))
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        nets = []
        for X in (X1, X2):
            if mode == "diagonal":
                D = np.diag(np.diag(X))
                W = (X - D) + alpha * D
            else:
                S = (X + X.T) / 2.0
                A = (X - X.T) / 2.0
                W = S + alpha * A
            n = X.shape[0]
            nets.append(MeasureNetwork(W, np.full(n, 1.0 / n)))
        for s in range(n_seeds):
            p = FrechetParams(max_iters=30,
                              gw=GwParams(rng_seed=rng_seed + 7919 * s))
            result = frechet_mean(nets, p, seed=min(n1, n2))
            rows.append({"mode": mode, "alpha": alpha, "seed": s,
                         "final_loss": result.loss,
                         "final_size": result.network.size,
                         "iterations": result.iterations,
                         "converged": result.converged})
    return rows
