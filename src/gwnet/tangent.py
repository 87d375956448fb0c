"""Tangent vectors at a base network: the log and exp maps.

A tangent vector at X is a square matrix of weight differences living on a
representative of X (possibly expanded), together with that representative's
measure. The log map produces one from a second network by blowing up a
coupling of the base and that network; the exp map adds one back onto the
base weights. The inner product of tangent vectors is that of
L2(mu x mu); `analysis` applies it to tangent datasets through their
weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import GwnetError, MeasureNetwork
from .alignment import AlignedPair, blow_up


@dataclass(frozen=True)
class TangentVector:
    """Weight-difference matrix f on a base representative."""

    base: MeasureNetwork
    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        n = self.base.size
        if f.shape != (n, n):
            raise GwnetError(f"f shape {f.shape} does not match base size {n}")
        if not np.all(np.isfinite(f)):
            raise GwnetError("f contains non-finite entries")
        object.__setattr__(self, "f", f)


def log_map(X: MeasureNetwork, Y: MeasureNetwork,
            coupling) -> tuple[TangentVector, AlignedPair]:
    """Lift Y to a tangent vector at X along a coupling of the two.

    Blows the coupling up (a Coupling or a matrix, checked as in blow_up)
    and returns f = omega_yhat - omega_xhat on the expanded base, plus the
    aligned pair. The direction depends on which (locally) optimal coupling
    is given, for instance the one solve_gw lands on; the solver itself is
    deterministic for fixed parameters.
    """
    pair = blow_up(X, Y, coupling)
    base = pair.base_network()
    f = pair.omega_yhat - pair.omega_xhat
    return TangentVector(base=base, f=f), pair


def exp_map(v: TangentVector) -> MeasureNetwork:
    """Endpoint of the straight weight path: base weights plus f."""
    return MeasureNetwork(v.base.omega + v.f, v.base.mu)
