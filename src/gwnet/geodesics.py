"""Geodesics between measure networks.

Linear interpolation of the aligned weight matrices traces a constant-speed
shortest path between the endpoint classes: evaluate(t) carries the shared
measure and the weights (1 - t) omega_xhat + t omega_yhat. The product-space
construction over the coupling's support is kept as a testing reference;
both yield the same networks node for node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import Coupling, GwnetError, MeasureNetwork
from .gw import GwParams, _check_shapes
from .alignment import AlignedPair, _support_mask, aligned_distance, align


class OutOfRangeError(GwnetError):
    pass


@dataclass(frozen=True)
class GeodesicRep:
    """Aligned endpoints plus the certified half-length (the distance)."""

    pair: AlignedPair
    half_length: float

    @property
    def size(self) -> int:
        return self.pair.size


def evaluate(g: GeodesicRep, t: float) -> MeasureNetwork:
    """Network at parameter t along the geodesic, 0 <= t <= 1."""
    if not 0.0 <= t <= 1.0:
        raise OutOfRangeError(f"t={t} outside [0, 1]")
    omega = (1.0 - t) * g.pair.omega_xhat + t * g.pair.omega_yhat
    return MeasureNetwork(omega, g.pair.mu_hat)


def geodesic_aligned(X: MeasureNetwork, Y: MeasureNetwork,
                     params: GwParams | None = None,
                     coupling: Coupling | None = None) -> GeodesicRep:
    """Minimal-size geodesic representation from a locally optimal coupling.

    The representation has at most n + m - 1 nodes when the coupling is a
    polytope vertex. Its half_length is the distance certified by the
    alignment; the path is a true geodesic exactly when the coupling is
    globally optimal.
    """
    pair, _ = align(X, Y, params, coupling)
    return GeodesicRep(pair=pair, half_length=aligned_distance(pair))


def geodesic_naive(X: MeasureNetwork, Y: MeasureNetwork, C: Coupling):
    """Reference geodesic on the coupling's support in the product space.

    Returns a function t -> MeasureNetwork whose nodes are the support
    entries (i, j) of C, with measure the coupling values and weights
    (1 - t) omega_X(i, i') + t omega_Y(j, j'). Testing reference only.
    """
    mat = C.matrix
    _check_shapes(X, Y, mat)
    src, tgt = np.nonzero(_support_mask(mat))
    masses = mat[src, tgt].astype(float)
    masses /= masses.sum()
    wx = X.omega[np.ix_(src, src)]
    wy = Y.omega[np.ix_(tgt, tgt)]

    def at(t: float) -> MeasureNetwork:
        if not 0.0 <= t <= 1.0:
            raise OutOfRangeError(f"t={t} outside [0, 1]")
        return MeasureNetwork((1.0 - t) * wx + t * wy, masses)

    return at
