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

import json
import operator
from dataclasses import dataclass

import numpy as np

from .networks import (GwnetError, MeasureNetwork, ParseError,
                       network_from_dict, network_to_dict)
from .gw import GwParams
from .alignment import AlignedPair, BlowupPlan, align


class BaseMismatchError(GwnetError):
    pass


@dataclass(frozen=True)
class TangentVector:
    """Weight-difference matrix f on a base representative."""

    base: MeasureNetwork
    f: np.ndarray
    plan: BlowupPlan | None = None

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
        return TangentVector(self.base, float(s) * self.f, self.plan)

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
    pair, _ = align(X, Y, params, coupling)
    base = pair.base_network()
    f = pair.omega_yhat - pair.omega_xhat
    return TangentVector(base=base, f=f, plan=pair.plan), pair


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


def tangent_to_dict(v: TangentVector) -> dict:
    d = {"base": network_to_dict(v.base), "f": v.f.tolist()}
    if v.plan is not None:
        d["plan"] = {"source_index": list(v.plan.source_index),
                     "target_index": list(v.plan.target_index),
                     "u": list(v.plan.u), "v": list(v.plan.v)}
    return d


def tangent_from_dict(d: dict) -> TangentVector:
    """Inverse of tangent_to_dict. Raises ParseError on missing or
    non-numeric fields, and on a plan whose copy counts u and v or size
    disagree with its indices and base."""
    if not isinstance(d, dict) or "base" not in d or "f" not in d:
        raise ParseError("tangent object needs 'base' and 'f' fields")
    base = network_from_dict(d["base"])
    try:
        f = np.array(d["f"], dtype=float)
        plan = None
        if "plan" in d:
            src, tgt, u, v = (tuple(operator.index(k) for k in d["plan"][key])
                              for key in ("source_index", "target_index",
                                          "u", "v"))
            plan = BlowupPlan(src, tgt)
            if (len(src), len(tgt)) != (base.size, base.size) \
                    or (plan.u, plan.v) != (u, v):
                raise ValueError("plan counts or size disagree with its "
                                 "indices and base")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed tangent data: {exc!r}") from exc
    return TangentVector(base=base, f=f, plan=plan)


def write_tangent(v: TangentVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tangent_to_dict(v)) + "\n")


def read_tangent(path) -> TangentVector:
    """Read a vector written by write_tangent. Raises ParseError on bad content."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc}") from exc
    return tangent_from_dict(d)
