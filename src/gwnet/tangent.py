"""Tangent vectors at a base network: log and exp maps, inner products,
and the certificate radius for when a straight line of weights is a
geodesic.

A tangent vector at X is a square matrix of weight differences living on a
representative of X (possibly expanded), together with that representative's
measure. The log map produces one from a second network by aligning it to
the base; the exp map adds one back onto the base weights. Norms and inner
products are taken in L2 of the product measure mu x mu.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import GwnetError, MeasureNetwork
from .gw import GwParams
from .alignment import AlignedPair, align


class BaseMismatchError(GwnetError):
    pass


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

    def _check_same_base(self, other: "TangentVector"):
        if self.base.size != other.base.size or \
                not np.array_equal(self.base.mu, other.base.mu):
            raise BaseMismatchError(
                "tangent vectors live on different bases; co-align them first")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return TangentVector(self.base, self.f + other.f)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return TangentVector(self.base, self.f - other.f)

    def __mul__(self, s: float) -> "TangentVector":
        return TangentVector(self.base, float(s) * self.f)

    __rmul__ = __mul__


def inner_product(v: TangentVector, w: TangentVector) -> float:
    """<v, w> = sum_ij v_ij w_ij mu_i mu_j on a shared base."""
    v._check_same_base(w)
    mu = v.base.mu
    return float(mu @ (v.f * w.f) @ mu)


def norm(v: TangentVector) -> float:
    return float(np.sqrt(inner_product(v, v)))


def log_map(X: MeasureNetwork, Y: MeasureNetwork,
            params: GwParams | None = None,
            coupling=None) -> tuple[TangentVector, AlignedPair]:
    """Lift Y to a tangent vector at X.

    Aligns Y to X along a (locally) optimal coupling and returns
    f = omega_yhat - omega_xhat on the expanded base, plus the aligned pair.
    The direction depends on which optimal coupling the solver lands on;
    the solver itself is deterministic for fixed parameters.
    """
    pair = align(X, Y, params, coupling)
    base = pair.base_network()
    f = pair.omega_yhat - pair.omega_xhat
    return TangentVector(base=base, f=f), pair


def exp_map(v: TangentVector) -> MeasureNetwork:
    """Endpoint of the straight weight path: base weights plus f."""
    return MeasureNetwork(v.base.omega + v.f, v.base.mu)


def injectivity_radius(X: MeasureNetwork) -> float:
    """Half the smallest strictly positive gap between weight values.

    Infinite when the weight matrix is constant: any straight line of
    weights is then a geodesic with no restriction on the tangent vector.
    The value only depends on the set of weight values, so it is invariant
    under expansion of the network.
    """
    values = np.unique(X.omega)
    if len(values) == 1:
        return float("inf")
    gaps = np.diff(values)
    return float(gaps.min()) / 2.0


@dataclass(frozen=True)
class GeodesicCertificate:
    """geodesic: t -> base + t f is a geodesic on [0, 1].
    log_injective: additionally f is small enough that the log map inverts
    the exp map around the base (max |f| below half the radius)."""

    geodesic: bool
    log_injective: bool
    radius: float
    max_abs_f: float


def geodesic_certificate(X: MeasureNetwork, v: TangentVector) -> GeodesicCertificate:
    """Sup-norm certificate that exp of v is reached along a geodesic."""
    eps = injectivity_radius(X)
    m = float(np.max(np.abs(v.f))) if v.f.size else 0.0
    return GeodesicCertificate(geodesic=m < eps,
                               log_injective=m < eps / 2.0,
                               radius=eps, max_abs_f=m)

