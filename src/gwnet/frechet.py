"""Averages of network collections by gradient flow in tangent space.

frechet_gradient is the one step that aligns a collection to a base: it
solves every member against the base once, from its warm start, then glues
the alignments into one blow-up of that base on which each member's
coupling is diagonal, so that all aligned members live on one common base.
The gradient there is

    g = 2 (omega_base - mean_k omega_target_k)

whose zero is the entrywise arithmetic mean of the aligned members. The
mean iteration steps the base weights by -TAU g, which lands exactly on
that mean. It stops at the first iterate where that step would not move
the base, the one stop it reports as converged, or at its cap. Every solve
is warm-started from the member's coupling of the previous iteration.
Tangent PCA (analysis.vectorize_at_base) takes its data from the same step.

The compressed variants keep the base size fixed: each member's aligned
difference is block-averaged over the copies of each base node before it
is used, which also yields fixed-size compressed representatives of large
networks.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .networks import (Coupling, DimensionMismatchError, GwnetError,
                       MeasureNetwork, check_count)
from .gw import GwParams, solve_gw
from .alignment import (_expansion_matrix, align, aligned_distance, blow_up,
                        glue)
from .tangent import TangentVector


# A step of TAU lands exactly on the entrywise mean of the aligned members
# (for two members, the midpoint of their geodesic), the minimizer of the
# loss while the alignments stay fixed.
TAU = 0.5

# Stationary: |g|^2_mu <= STATIONARY_TOL * loss. Measured stops sit at 1e-32
# or less and other iterates at 1e-6 or more, so the exact value is moot.
STATIONARY_TOL = 1e-8


@dataclass(frozen=True)
class FrechetParams:
    """Knobs for the mean iteration.

    The iteration stops at the first stationary iterate, and after
    max_iters steps in any case. compress "to_seed_size" block-averages
    every log map down to the seed size so the base never grows. gw
    configures every distance solve.
    """

    max_iters: int = 100
    compress: str = "none"
    gw: GwParams = field(default_factory=GwParams)

    def __post_init__(self):
        if self.compress not in ("none", "to_seed_size"):
            raise GwnetError(f"unknown compress {self.compress!r}")
        check_count(self.max_iters, "max_iters", 1)


def _check_warm(warm, X: MeasureNetwork, S: list[MeasureNetwork]) -> list:
    """The warm starts as a new list, one coupling from X to each member,
    or all None."""
    if warm is None:
        return [None] * len(S)
    shapes = [np.shape(C) for C in warm]
    if shapes != [(X.size, Y.size) for Y in S]:
        raise DimensionMismatchError(
            f"warm start shapes {shapes} do not match the members")
    return list(warm)


def _warm_params(gw_params: GwParams, start: np.ndarray | None) -> GwParams:
    """gw_params started from the coupling `start`, if there is one."""
    if start is None:
        return gw_params
    # a concrete start replaces multi-start: restarts add nothing but cost
    return replace(gw_params, given=start, restarts=0)


@dataclass(frozen=True)
class FrechetGradient:
    gradient: TangentVector       # on the common base
    base: MeasureNetwork
    targets: tuple
    loss: float                   # mean squared distance at the current couplings
    couplings: tuple


def frechet_gradient(S: list[MeasureNetwork], X: MeasureNetwork,
                     params: FrechetParams | None = None,
                     warm: list | None = None) -> FrechetGradient:
    """Gradient of the mean squared distance to S at X, from one alignment
    of every member to X.

    Each member is solved against X once, from its warm start if given (one
    coupling from X to each member). Uncompressed, the couplings are glued
    into one blow-up of X, the returned base, on which each of them is
    diagonal; targets are the members' aligned weights there, and couplings
    their diagonal couplings from that base. Compressed, each member is
    blown up on its own and its aligned difference block-averaged back to
    X, which stays the base; couplings are the solved ones. Either way the
    couplings are the warm starts of a next call at the base, and the loss
    is the mean squared distance the aligned pairs certify. The gradient
    is zero exactly when the base weights are the entrywise mean of the
    targets.
    """
    if not S:
        raise GwnetError("empty collection")
    params = params or FrechetParams()
    solved = [solve_gw(X, Y, _warm_params(params.gw, start))[0]
              for Y, start in zip(S, _check_warm(warm, X, S))]
    if params.compress == "to_seed_size":
        pairs = [blow_up(X, Y, C) for Y, C in zip(S, solved)]
        vs = [pair.plan.average(pair.omega_yhat - pair.omega_xhat)
              for pair in pairs]
        base, targets = X, [X.omega + v for v in vs]
        g = -2.0 * np.mean(vs, axis=0)
        couplings = [C.matrix for C in solved]
    else:
        pairs = glue(X, S, solved)
        base, targets = pairs[0].base_network(), [p.omega_yhat for p in pairs]
        g = 2.0 * (base.omega - np.mean(targets, axis=0))
        couplings = [_expansion_matrix(p.plan.target_index, Y.size, p).T
                     for Y, p in zip(S, pairs)]
    loss = float(np.mean([aligned_distance(p) ** 2 for p in pairs]))
    return FrechetGradient(gradient=TangentVector(base, g), base=base,
                           targets=tuple(targets), loss=loss,
                           couplings=tuple(couplings))


@dataclass(frozen=True)
class FrechetResult:
    """The best iterate of a mean, with its loss. iterations counts the
    steps taken, one less than the trace's rows, whatever the cap."""

    network: MeasureNetwork
    loss: float
    converged: bool
    iterations: int
    trace: tuple          # (iteration, loss, base_size) rows


def _resolve_seed(S, seed, rng_seed: int) -> MeasureNetwork:
    if isinstance(seed, MeasureNetwork):
        return seed
    if seed is None:
        return S[0]
    k = check_count(seed, "seed size", 1)
    rng = np.random.default_rng(rng_seed)
    return MeasureNetwork(rng.random((k, k)), np.full(k, 1.0 / k))


def frechet_mean(S: list[MeasureNetwork],
                 params: FrechetParams | None = None,
                 seed: MeasureNetwork | int | None = None) -> FrechetResult:
    """Iterative mean of a collection by tangent-space gradient descent.

    seed is a network, an integer size (a random network of that size,
    drawn at seed params.gw.rng_seed) or None for the first member. Every
    step of TAU lands exactly on the entrywise mean of the currently
    aligned members. The iteration stops at the first stationary iterate,
    with |g|^2_mu <= STATIONARY_TOL * loss, where that step would not move
    the base (for an uncompressed mean it would lower the loss by exactly
    |g|^2_mu / 16). Iterates 0..max_iters are evaluated at most. Returns
    the best iterate seen; converged is True exactly when the last
    evaluated iterate is stationary.
    """
    if not S:
        raise GwnetError("empty collection")
    params = params or FrechetParams()
    X = _resolve_seed(S, seed, params.gw.rng_seed)
    warm: tuple | None = None
    trace: list[tuple] = []
    best: tuple[float, MeasureNetwork] | None = None

    for it in range(params.max_iters + 1):
        grad = frechet_gradient(S, X, params, warm=warm)
        loss, base, g = grad.loss, grad.base, grad.gradient.f
        warm = grad.couplings
        trace.append((it, loss, base.size))
        if best is None or loss < best[0]:
            best = (loss, base)
        # stationary: the full step would not move the base
        converged = float(base.mu @ (g * g) @ base.mu) <= STATIONARY_TOL * loss
        if converged or it == params.max_iters:
            break
        X = base.with_omega(base.omega - TAU * g)
    return FrechetResult(network=best[1], loss=best[0], converged=converged,
                         iterations=len(trace) - 1,
                         trace=tuple(trace))


def compress_log(X: MeasureNetwork, Y: MeasureNetwork,
                 params: FrechetParams | None = None,
                 coupling: Coupling | None = None) -> np.ndarray:
    """Size-|X| compression of the aligned difference between Y and X.

    Aligns Y to X, then averages the difference matrix over the copies of
    each X node (plain average over the u_x * u_x' copy pairs). Adding the
    result to omega_X gives a |X|-node compressed representative of Y.
    """
    params = params or FrechetParams()
    pair = align(X, Y, params.gw, coupling)
    return pair.plan.average(pair.omega_yhat - pair.omega_xhat)


def compressed_average(X: MeasureNetwork, Y: MeasureNetwork,
                       params: FrechetParams | None = None) -> MeasureNetwork:
    """Average of X and the compressed representative of Y, at X's size.

    Returns (X, omega_X + v/2, mu_X) where v = compress_log(X, Y). No
    expansion takes place.
    """
    return X.with_omega(X.omega + 0.5 * compress_log(X, Y, params))
