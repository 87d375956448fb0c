"""Turning transport plans into transport maps.

A coupling with sparse support expands, by replicating nodes, into a pair
of same-size networks on which the coupling becomes diagonal: node k of
the common expansion corresponds to the k-th support entry (i_k, j_k) of
the coupling (row-major order), carries its mass, pulls its row weights
from X via i_k and its column weights from Y via j_k. On the expanded pair
the weight matrices can be compared entrywise, which is what geodesics,
tangent vectors and means are built on.

This module alone decides which entries form the support (_support_mask)
and how matrices move between a network and its expansion (BlowupPlan):
support_size(C) is always the node count blow_up makes from C.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import Coupling, GwnetError, MeasureNetwork
from .gw import GwParams, _as_matrix, solve_gw

# entries below this fraction of the largest one are treated as zeros;
# line searches leave dust that must not spawn spurious node copies
SUPPORT_REL_THRESHOLD = 1e-9


def _support_mask(x: np.ndarray) -> np.ndarray:
    """Entries of x above SUPPORT_REL_THRESHOLD times the largest entry.
    Marginals are positive, so every row and column carries mass: one that
    thresholding empties keeps its largest entry."""
    mask = x > SUPPORT_REL_THRESHOLD * x.max(initial=0.0)
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, int(np.argmax(x[i]))] = True
    for j in np.flatnonzero(~mask.any(axis=0)):
        mask[int(np.argmax(x[:, j])), j] = True
    return mask


def binarize(C) -> np.ndarray:
    """0/1 support indicator of a coupling."""
    return _support_mask(_as_matrix(C)).astype(float)


def support_size(C) -> int:
    """Number of coupling entries in the support: the size of its blow-up."""
    return int(binarize(C).sum())


@dataclass(frozen=True)
class BlowupPlan:
    """Bookkeeping of one expansion.

    source_index[k] and target_index[k] give the X node and Y node behind
    expanded node k; u and v count the copies made of each X and Y node
    (every node has at least one). expand() replays the row/column
    replication on a matrix living on the X nodes, which is how tangent
    vectors collected on an older base are carried onto a newer one;
    average() takes a matrix on the expanded nodes back to the X nodes by
    averaging over the copies.
    """

    source_index: tuple[int, ...]
    target_index: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.source_index)

    @property
    def u(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.source_index).tolist())

    @property
    def v(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.target_index).tolist())

    def expand(self, mat: np.ndarray) -> np.ndarray:
        """Replicate rows/columns of a matrix on X onto the expanded nodes."""
        idx = np.array(self.source_index)
        return _square(mat, len(self.u), "source")[np.ix_(idx, idx)]

    def average(self, mat: np.ndarray) -> np.ndarray:
        """Block average of a matrix on the expanded nodes: entry (i, i') is
        the plain mean over the u_i * u_i' copy pairs of X nodes i and i'."""
        mat = _square(mat, self.size, "expanded")
        u = np.array(self.u)
        P = (np.arange(len(u))[:, None] == np.array(self.source_index)) \
            / u[:, None]
        return P @ mat @ P.T


def _square(mat, n: int, nodes: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (n, n):
        raise GwnetError(
            f"matrix shape {mat.shape} does not live on the {n} {nodes} "
            "nodes")
    return mat


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

    C must be a coupling of (mu_X, mu_Y); its matrix is checked against
    the two measures. Masses are renormalized per source row so that the
    copies of each X node reproduce its measure exactly. The expansion has
    support_size(C) nodes: at most n + m - 1 on a vertex coupling and up
    to n * m on an interior one, which is not thinned first.
    """
    mat = Coupling(C.matrix, X.mu, Y.mu).matrix
    src, tgt = np.nonzero(_support_mask(mat))  # ascending target per row
    masses = mat[src, tgt].astype(float)
    # exact mass preservation per source node
    for i in range(X.size):
        sel = src == i
        masses[sel] *= X.mu[i] / masses[sel].sum()
    return AlignedPair(omega_xhat=X.omega[np.ix_(src, src)],
                       omega_yhat=Y.omega[np.ix_(tgt, tgt)],
                       mu_hat=masses,
                       plan=BlowupPlan(tuple(src.tolist()),
                                       tuple(tgt.tolist())))


def aligned_distance(pair: AlignedPair) -> float:
    """Distance certified by the aligned pair: half the distortion of its
    diagonal coupling."""
    diff2 = (pair.omega_xhat - pair.omega_yhat) ** 2
    dis2 = float(pair.mu_hat @ diff2 @ pair.mu_hat)
    return float(np.sqrt(max(dis2, 0.0))) / 2.0


def align(X: MeasureNetwork, Y: MeasureNetwork,
          params: GwParams | None = None,
          coupling: Coupling | None = None) -> tuple[AlignedPair, Coupling]:
    """Solve for a coupling (unless given) and blow it up. Returns the
    aligned pair and the coupling it expands; a given coupling is expanded
    as passed."""
    if coupling is None:
        coupling, _ = solve_gw(X, Y, params)
    return blow_up(X, Y, coupling), coupling


def _expansion_matrix(index, n: int, pair: AlignedPair) -> np.ndarray:
    """n x |pair| matrix giving each expanded node k its own mass at the
    node index[k] of the unexpanded network."""
    mat = np.zeros((n, pair.size))
    mat[np.array(index), np.arange(pair.size)] = pair.mu_hat
    return mat


def expansion_coupling_source(X: MeasureNetwork, pair: AlignedPair) -> Coupling:
    """The canonical coupling between X and its expansion: each copy gets
    its own mass. Certifies that the expansion is at distance zero."""
    return Coupling(_expansion_matrix(pair.plan.source_index, X.size, pair),
                    X.mu, pair.mu_hat)


def expansion_coupling_target(Y: MeasureNetwork, pair: AlignedPair) -> Coupling:
    """Canonical coupling between Y and the aligned target expansion."""
    return Coupling(_expansion_matrix(pair.plan.target_index, Y.size, pair),
                    Y.mu, pair.mu_hat)
