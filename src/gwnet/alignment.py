"""Turning transport plans into transport maps.

A coupling with sparse support expands, by replicating nodes, into a pair
of same-size networks on which the coupling becomes diagonal: node k of
the common expansion corresponds to the k-th support entry (i_k, j_k) of
the coupling (row-major order), carries its mass, pulls its row weights
from X via i_k and its column weights from Y via j_k. On the expanded pair
the weight matrices can be compared entrywise, which is what geodesics,
tangent vectors and means are built on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import Coupling, GwnetError, MeasureNetwork, SolveReport
from .gw import GwParams, distortion_matrix, solve_gw, _cross, _objective
from .linear_ot import OtProblem, _support_mask, solve_linear_ot

# entries below this fraction of the largest one are treated as zeros;
# line searches leave dust that must not spawn spurious node copies
SUPPORT_REL_THRESHOLD = 1e-9


def binarize(C, threshold: float | None = None) -> np.ndarray:
    """0/1 support indicator of a coupling."""
    C = C.matrix if isinstance(C, Coupling) else np.asarray(C, dtype=float)
    if threshold is None:
        threshold = SUPPORT_REL_THRESHOLD * C.max(initial=0.0)
    return (C > threshold).astype(float)


def support_size(C, threshold: float | None = None) -> int:
    """Number of coupling entries above the support threshold."""
    return int(binarize(C, threshold).sum())


@dataclass(frozen=True)
class BlowupPlan:
    """Bookkeeping of one expansion.

    source_index[k] and target_index[k] give the X node and Y node behind
    expanded node k; u and v count the copies made of each X and Y node.
    expand() replays the row/column replication on any matrix living on the
    pre-expansion X nodes, which is how tangent vectors collected on an
    older base are carried onto a newer one.
    """

    source_index: tuple[int, ...]
    target_index: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.source_index)

    def expand(self, mat: np.ndarray) -> np.ndarray:
        """Replicate rows/columns of a matrix on X onto the expanded nodes."""
        idx = np.array(self.source_index)
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (len(self.u), len(self.u)):
            raise GwnetError(
                f"matrix shape {mat.shape} does not live on the {len(self.u)} "
                "source nodes")
        return mat[np.ix_(idx, idx)]


@dataclass(frozen=True)
class AlignedPair:
    """A pair of same-size weight matrices sharing one node measure.

    The diagonal coupling diag(mu_hat) is the transport map the source
    coupling expanded to; its distortion equals the source coupling's.
    """

    omega_xhat: np.ndarray
    omega_yhat: np.ndarray
    mu_hat: np.ndarray
    plan: BlowupPlan

    @property
    def size(self) -> int:
        return len(self.mu_hat)

    def base_network(self) -> MeasureNetwork:
        return MeasureNetwork(self.omega_xhat, self.mu_hat)

    def target_network(self) -> MeasureNetwork:
        return MeasureNetwork(self.omega_yhat, self.mu_hat)


def blow_up(X: MeasureNetwork, Y: MeasureNetwork, C: Coupling) -> AlignedPair:
    """Expand a coupling of X and Y into an aligned pair.

    Masses are renormalized per source row so that the copies of each X
    node reproduce its measure exactly. The construction succeeds for any
    finitely supported coupling; on a vertex coupling the expanded size is
    at most n + m - 1.
    """
    mat = C.matrix
    if mat.shape != (X.size, Y.size):
        raise GwnetError(
            f"coupling shape {mat.shape} does not match networks "
            f"({X.size}, {Y.size})")
    mask = _support_mask(mat, SUPPORT_REL_THRESHOLD * mat.max(initial=0.0))
    src, tgt = np.nonzero(mask)          # row-major, so ascending target per row
    masses = mat[src, tgt].astype(float)
    # exact mass preservation per source node
    for i in range(X.size):
        sel = src == i
        masses[sel] *= X.mu[i] / masses[sel].sum()
    u = np.bincount(src, minlength=X.size)
    v = np.bincount(tgt, minlength=Y.size)
    plan = BlowupPlan(source_index=tuple(int(i) for i in src),
                      target_index=tuple(int(j) for j in tgt),
                      u=tuple(int(k) for k in u),
                      v=tuple(int(k) for k in v))
    return AlignedPair(omega_xhat=X.omega[np.ix_(src, src)],
                       omega_yhat=Y.omega[np.ix_(tgt, tgt)],
                       mu_hat=masses,
                       plan=plan)


def aligned_distance(pair: AlignedPair) -> float:
    """Distance certified by the aligned pair: half the distortion of its
    diagonal coupling."""
    diff2 = (pair.omega_xhat - pair.omega_yhat) ** 2
    dis2 = float(pair.mu_hat @ diff2 @ pair.mu_hat)
    return float(np.sqrt(max(dis2, 0.0))) / 2.0


def to_vertex_coupling(X: MeasureNetwork, Y: MeasureNetwork,
                       C: Coupling) -> Coupling:
    """Round a converged coupling to a polytope vertex when possible.

    Line searches can stop at interior points whose support exceeds
    n + m - 1. Re-solving the linear problem with the current gradient as
    cost proposes a vertex; it is accepted only if the quadratic objective
    does not regress, otherwise the original coupling is kept.
    """
    n, m = C.shape
    if support_size(C) <= n + m - 1:
        return C
    # the gradient as solve_gw sends it, without its marginal terms
    G = -2.0 * _cross(X.omega, Y.omega, C.matrix)
    V, _ = solve_linear_ot(OtProblem(G, X.mu, Y.mu))
    J_c = _objective(X, Y, C.matrix)[0]
    J_v = _objective(X, Y, V.matrix)[0]
    if J_v <= J_c + 1e-9 * max(abs(J_c), 1.0):
        return V
    return C


def align(X: MeasureNetwork, Y: MeasureNetwork,
          params: GwParams | None = None,
          coupling: Coupling | None = None) -> tuple[AlignedPair, Coupling, SolveReport]:
    """Solve for a coupling (unless given), vertex-round it, and blow up."""
    if coupling is None:
        coupling, report = solve_gw(X, Y, params)
    else:
        dis = distortion_matrix(X, Y, coupling)
        report = SolveReport(cost=dis, gw_distance=dis / 2.0, iterations=0,
                             converged=True, objective_trace=(dis ** 2,))
    coupling = to_vertex_coupling(X, Y, coupling)
    return blow_up(X, Y, coupling), coupling, report


def expansion_coupling_source(X: MeasureNetwork, pair: AlignedPair) -> Coupling:
    """The canonical coupling between X and its expansion: each copy gets
    its own mass. Certifies that the expansion is at distance zero."""
    plan = pair.plan
    mat = np.zeros((X.size, pair.size))
    for k, i in enumerate(plan.source_index):
        mat[i, k] = pair.mu_hat[k]
    return Coupling(mat, X.mu, pair.mu_hat)


def expansion_coupling_target(Y: MeasureNetwork, pair: AlignedPair) -> Coupling:
    """Canonical coupling between Y and the aligned target expansion."""
    plan = pair.plan
    mat = np.zeros((Y.size, pair.size))
    for k, j in enumerate(plan.target_index):
        mat[j, k] = pair.mu_hat[k]
    return Coupling(mat, Y.mu, pair.mu_hat)
