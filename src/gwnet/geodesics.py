"""Geodesics between measure networks.

Linear interpolation of the aligned weight matrices traces a constant-speed
shortest path between the endpoint classes: evaluate(t) carries the shared
measure and the weights (1 - t) omega_xhat + t omega_yhat. The
product-space construction over the coupling's support, which yields the
same networks node for node, is a test oracle (tests/oracles.py).
"""
from __future__ import annotations

from dataclasses import dataclass

from .networks import Coupling, GwnetError, MeasureNetwork
from .gw import GwParams
from .alignment import AlignedPair, aligned_distance, align


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
    pair = align(X, Y, params, coupling)
    return GeodesicRep(pair=pair, half_length=aligned_distance(pair))

