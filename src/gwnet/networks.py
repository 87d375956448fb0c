"""Core domain types: measure networks, couplings, solve reports, file I/O.

A measure network is a square real weight matrix (possibly asymmetric, any
sign, any diagonal) together with a fully supported probability vector over
its nodes. All downstream machinery (distances, geodesics, tangent vectors,
means) operates on these two arrays.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9
MARGINAL_TOL = 1e-8


class GwnetError(ValueError):
    """The one error this package raises, on invalid input or a failed
    computation. Its message names the argument or step at fault."""


def check_count(value, name: str, least: int) -> int:
    """value as an int of at least `least`; a bool, float or string fails."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):    # operator.index(True) is 1
        raise GwnetError(f"{name} must be an integer, got {value!r}")
    if n < least:
        raise GwnetError(f"{name} must be at least {least}, got {n}")
    return n


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MeasureNetwork:
    """A weighted network with a probability measure on its nodes.

    omega is the n x n weight matrix, mu the length-n node measure. Entries
    of mu must be strictly positive and sum to 1 within PROB_TOL. A mu whose
    float sum is off 1 by more than n ulps is divided by that sum, which
    brings it within n ulps; any other mu is stored as given, so that
    rebuilding a network from its own arrays, or reading back its file,
    gives the same bits. Arrays are stored read-only.
    """

    omega: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if omega.ndim != 2 or omega.shape[0] != omega.shape[1] or omega.shape[0] < 1:
            raise GwnetError(f"omega must be square, got shape {omega.shape}")
        n = omega.shape[0]
        if mu.shape != (n,):
            raise GwnetError(f"mu must have length {n}, got shape {mu.shape}")
        if not np.all(np.isfinite(omega)):
            raise GwnetError("omega contains non-finite entries")
        if not np.all(np.isfinite(mu)):
            raise GwnetError("mu contains non-finite entries")
        if np.any(mu <= 0):
            raise GwnetError("mu entries must be strictly positive")
        total = float(mu.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise GwnetError(f"mu sums to {total}, expected 1")
        object.__setattr__(self, "omega", _freeze(omega))
        if abs(total - 1.0) > n * np.finfo(float).eps:
            mu = mu / total
        object.__setattr__(self, "mu", _freeze(mu))

    @property
    def size(self) -> int:
        return self.omega.shape[0]

    def with_omega(self, omega: np.ndarray) -> "MeasureNetwork":
        """Same nodes and measure, new weights."""
        return MeasureNetwork(omega, self.mu)


def check_coupling(matrix: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Raise unless the float matrix is a coupling of the float vectors
    (p, q): shape (len(p), len(q)), finite entries and marginals,
    nonnegative entries, and row and column sums within MARGINAL_TOL of p
    and q per entry."""
    if matrix.ndim != 2 or matrix.shape != (p.shape[0], q.shape[0]):
        raise GwnetError(
            f"matrix shape {matrix.shape} does not match marginals "
            f"({p.shape[0]}, {q.shape[0]})")
    if not (np.isfinite(matrix).all() and np.isfinite(p).all()
            and np.isfinite(q).all()):
        raise GwnetError(
            "coupling or its marginals contain non-finite entries")
    if matrix.min(initial=0.0) < 0:
        raise GwnetError("coupling entries must be nonnegative")
    if np.abs(matrix.sum(axis=1) - p).max() > MARGINAL_TOL:
        raise GwnetError("row sums do not match the row marginal")
    if np.abs(matrix.sum(axis=0) - q).max() > MARGINAL_TOL:
        raise GwnetError("column sums do not match the column marginal")


@dataclass(frozen=True)
class Coupling:
    """A nonnegative matrix with prescribed row and column marginals.

    Row sums must match row_marginal and column sums col_marginal within
    MARGINAL_TOL per entry. Couplings are the soft node matchings over
    which the distance is optimized.
    """

    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        matrix = _freeze(self.matrix)
        p = _freeze(self.row_marginal)
        q = _freeze(self.col_marginal)
        if p.ndim != 1 or q.ndim != 1:
            raise GwnetError(f"marginals must be 1-D, got shapes {p.shape} "
                             f"and {q.shape}")
        check_coupling(matrix, p, q)
        # a frozen dataclass sets its checked fields through __dict__
        self.__dict__.update(matrix=matrix, row_marginal=p, col_marginal=q)

    @classmethod
    def _adopt(cls, matrix: np.ndarray, p: np.ndarray,
               q: np.ndarray) -> "Coupling":
        """Coupling over a fresh float matrix that the caller hands over and
        never writes to again, with read-only marginals. It is checked by
        the same rule, and made read-only in place instead of copied."""
        check_coupling(matrix, p, q)
        matrix.flags.writeable = False
        out = object.__new__(cls)
        out.__dict__.update(matrix=matrix, row_marginal=p, col_marginal=q)
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _coupling_of(C, p: np.ndarray, q: np.ndarray) -> Coupling:
    """C, a Coupling or a matrix, as a Coupling of the read-only measures
    (p, q): a Coupling of exactly (p, q) as it is, anything else copied in
    C order, as products round by layout, and checked against p and q."""
    if isinstance(C, Coupling):
        if (np.array_equal(C.row_marginal, p)
                and np.array_equal(C.col_marginal, q)):
            return C
        C = C.matrix
    return Coupling._adopt(np.array(C, dtype=float, order="C"), p, q)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a distance solve.

    cost is the distortion at the returned coupling and gw_distance is
    cost / 2. iterations counts the Frank-Wolfe steps of the winning start.
    """

    cost: float
    gw_distance: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# File formats. The file name alone decides: a name ending in ".csv" holds
# csv, any other name json.
#
# json: {"omega": [[...]], "mu": [...]}; other keys are ignored on read
# csv:  first line "mu,v1,...,vn", then n comma-separated omega rows.
# ---------------------------------------------------------------------------

def _format_for(path) -> str:
    return "csv" if str(path).endswith(".csv") else "json"


def network_to_dict(net: MeasureNetwork) -> dict:
    return {"omega": net.omega.tolist(), "mu": net.mu.tolist()}


def network_from_dict(d: dict) -> MeasureNetwork:
    if not isinstance(d, dict) or "omega" not in d or "mu" not in d:
        raise GwnetError("network object needs 'omega' and 'mu' fields")
    try:
        omega = np.array(d["omega"], dtype=float)
        mu = np.array(d["mu"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise GwnetError(f"non-numeric network data: {exc}") from exc
    return MeasureNetwork(omega, mu)


def write_network(net: MeasureNetwork, path) -> None:
    """Write a network: csv when the path ends in ".csv", else json."""
    if _format_for(path) == "json":
        # json.dumps runs the C encoder; json.dump writes the same bytes
        # through the pure-Python one
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(network_to_dict(net)) + "\n")
    else:
        # repr of a python float round-trips exactly
        lines = ["mu," + ",".join(repr(float(x)) for x in net.mu)]
        lines += [",".join(repr(float(x)) for x in row)
                  for row in net.omega]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def read_network(path) -> MeasureNetwork:
    """Read a network written by write_network, in the format its name
    gives. Raises GwnetError on bad content."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GwnetError(f"not utf-8 text: {exc}") from exc
    if _format_for(path) == "json":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GwnetError(f"invalid json: {exc}") from exc
        return network_from_dict(d)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("mu,"):
        raise GwnetError("csv network must start with a 'mu,...' line")
    try:
        mu = np.array([float(x) for x in lines[0].split(",")[1:]], dtype=float)
        omega = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]],
                         dtype=float)
    except ValueError as exc:
        raise GwnetError(f"non-numeric csv entry: {exc}") from exc
    if omega.size == 0:
        raise GwnetError("csv network has no omega rows")
    return MeasureNetwork(omega, mu)
