"""Averages of network collections by gradient flow in tangent space.

One gradient evaluation log-maps every member of the collection onto a
running base: each alignment may expand the base, and the target matrices
collected so far are replicated onto the expanded node set so that at the
end everything lives on one common base. The gradient there is

    g = 2 (omega_base - mean_k omega_target_k)

whose zero is the entrywise arithmetic mean of the aligned members. The
mean iteration steps the base weights by -TAU g, which lands exactly on
that mean. It stops at the first iterate where that step would not move
the base, the one stop it reports as converged, or at its cap. Every solve
is warm-started from the member's coupling of the previous iteration.

The compressed variants keep the base size fixed: the aligned difference
is block-averaged over the copies of each base node before it is used,
which also yields fixed-size compressed representatives of large networks.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .networks import (Coupling, DimensionMismatchError, GwnetError,
                       MeasureNetwork, check_count)
from .gw import GwParams, solve_gw
from .alignment import _expansion_matrix, align, aligned_distance
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


def frechet_loss(S: list[MeasureNetwork], Z: MeasureNetwork,
                 params: FrechetParams | None = None) -> float:
    """Mean squared distance from Z to the members of S."""
    if not S:
        raise GwnetError("empty collection")
    params = params or FrechetParams()
    total = 0.0
    for Y in S:
        _, report = solve_gw(Z, Y, params.gw)
        total += report.gw_distance ** 2
    return total / len(S)


def _lift_coupling(C: np.ndarray, source_index, mu_old, mu_new) -> np.ndarray:
    """Carry a coupling on an old base onto its expansion, splitting each
    row's mass across the node's copies in proportion to their measures."""
    idx = np.asarray(source_index)
    return C[idx, :] * (mu_new / mu_old[idx])[:, None]


@dataclass
class _SequentialLog:
    base: MeasureNetwork          # common base after all alignments
    targets: list                 # aligned member weights on the final base
    distances: list               # per-member distance its alignment certifies
    couplings: list               # per-member coupling from the final base


def sequential_log(X: MeasureNetwork, S: list[MeasureNetwork],
                   gw_params: GwParams,
                   warm: list | None = None) -> _SequentialLog:
    """Log-map every member of S onto a base that starts at X and grows.

    Earlier members' aligned weights are replicated onto each expansion so
    the result is one common base plus one aligned weight matrix per
    member. couplings starts as the warm starts, one coupling from X to
    each member, and ends as each member's coupling from the final base.
    """
    base = X
    targets: list[np.ndarray] = []
    couplings = _check_warm(warm, X, S)
    distances: list[float] = []
    for k, Y in enumerate(S):
        gwp = _warm_params(gw_params, couplings[k])
        pair, _ = align(base, Y, gwp)
        plan = pair.plan
        if pair.size != base.size:
            # an expansion happened: replicate everything collected so far,
            # the couplings of earlier members and the warm starts of later
            targets = [plan.expand(T) for T in targets]
            couplings = [
                C if j == k or C is None
                else _lift_coupling(C, plan.source_index, base.mu, pair.mu_hat)
                for j, C in enumerate(couplings)]
        # the member's own coupling from the new base is the diagonal one
        couplings[k] = _expansion_matrix(plan.target_index, Y.size, pair).T
        targets.append(pair.omega_yhat)
        distances.append(aligned_distance(pair))
        base = pair.base_network()
    return _SequentialLog(base=base, targets=targets, distances=distances,
                          couplings=couplings)


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
    """Gradient of the mean squared distance to S at X.

    Zero exactly when the base weights are the entrywise mean of the
    aligned member weights.
    """
    if not S:
        raise GwnetError("empty collection")
    params = params or FrechetParams()
    if params.compress == "to_seed_size":
        vs, distances, couplings = [], [], []
        for Y, start in zip(S, _check_warm(warm, X, S)):
            v, d, mat = _compress_log(X, Y, params.gw, warm=start)
            vs.append(v)
            distances.append(d)
            couplings.append(mat)
        g = -2.0 * np.mean(vs, axis=0)
        loss = float(np.mean([d ** 2 for d in distances]))
        return FrechetGradient(gradient=TangentVector(X, g), base=X,
                               targets=tuple(X.omega + v for v in vs),
                               loss=loss, couplings=tuple(couplings))
    seq = sequential_log(X, S, params.gw, warm=warm)
    g = 2.0 * (seq.base.omega - np.mean(seq.targets, axis=0))
    loss = float(np.mean([d ** 2 for d in seq.distances]))
    return FrechetGradient(gradient=TangentVector(seq.base, g), base=seq.base,
                           targets=tuple(seq.targets), loss=loss,
                           couplings=tuple(seq.couplings))


@dataclass(frozen=True)
class FrechetResult:
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
                 seed: MeasureNetwork | int | None = None,
                 seed_rng: int = 0) -> FrechetResult:
    """Iterative mean of a collection by tangent-space gradient descent.

    seed may be a network, an integer size (a seeded random network of that
    size is used), or None for the first member. Every step of TAU lands
    exactly on the entrywise mean of the currently aligned members. The
    iteration stops at the first stationary iterate, with |g|^2_mu <=
    STATIONARY_TOL * loss, where that step would not move the base (for an
    uncompressed mean it would lower the loss by exactly |g|^2_mu / 16).
    Iterates 0..max_iters are evaluated at most. Returns the best iterate
    seen; converged is True exactly when the last evaluated iterate is
    stationary.
    """
    if not S:
        raise GwnetError("empty collection")
    params = params or FrechetParams()
    X = _resolve_seed(S, seed, seed_rng)
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
                         iterations=min(it + 1, params.max_iters),
                         trace=tuple(trace))


def _compress_log(X: MeasureNetwork, Y: MeasureNetwork,
                  gw_params: GwParams, coupling: Coupling | None = None,
                  warm: np.ndarray | None = None
                  ) -> tuple[np.ndarray, float, np.ndarray]:
    gwp = _warm_params(gw_params, warm)
    pair, coupling = align(X, Y, gwp, coupling)
    v = pair.plan.average(pair.omega_yhat - pair.omega_xhat)
    return v, aligned_distance(pair), coupling.matrix


def compress_log(X: MeasureNetwork, Y: MeasureNetwork,
                 params: FrechetParams | None = None,
                 coupling: Coupling | None = None) -> np.ndarray:
    """Size-|X| compression of the aligned difference between Y and X.

    Aligns Y to X, then averages the difference matrix over the copies of
    each X node (plain average over the u_x * u_x' copy pairs). Adding the
    result to omega_X gives a |X|-node compressed representative of Y.
    """
    params = params or FrechetParams()
    v, _, _ = _compress_log(X, Y, params.gw, coupling)
    return v


def compressed_average(X: MeasureNetwork, Y: MeasureNetwork,
                       params: FrechetParams | None = None) -> MeasureNetwork:
    """Average of X and the compressed representative of Y, at X's size.

    Returns (X, omega_X + v/2, mu_X) where v = compress_log(X, Y). No
    expansion takes place.
    """
    params = params or FrechetParams()
    v, _, _ = _compress_log(X, Y, params.gw)
    return X.with_omega(X.omega + 0.5 * v)
