"""Turning transport plans into transport maps.

A coupling with sparse support expands, by replicating nodes, into a pair
of same-size networks on which the coupling becomes diagonal: node k of
the common expansion corresponds to the k-th support entry (i_k, j_k) of
the coupling (row-major order), carries its mass, pulls its row weights
from X via i_k and its column weights from Y via j_k. On the expanded pair
the weight matrices can be compared entrywise, which is what geodesics,
tangent vectors and means are built on.

This module alone decides which entries form the support (_support_mask)
and how matrices move between a network and its expansion (the node maps
of AlignedPair): support_size(C) is always the node count blow_up makes
from C. glue blows X up once for several couplings, into the common
refinement of their blow-ups, on which every member's coupling is
diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import Coupling, MeasureNetwork, _coupling_of

# entries below this fraction of the largest one are treated as zeros:
# Frank-Wolfe steps leave dust that must not spawn spurious node copies
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


def support_size(C) -> int:
    """Support size of C, a Coupling or a matrix: the size of its blow-up."""
    mat = C.matrix if isinstance(C, Coupling) else np.asarray(C, dtype=float)
    return int(_support_mask(mat).sum())


@dataclass(frozen=True)
class AlignedPair:
    """A pair of same-size weight matrices sharing one node measure.

    The diagonal coupling diag(mu_hat) is the transport map the source
    coupling expanded to; its distortion equals the source coupling's.
    source_index[k] and target_index[k] are the X node and the Y node
    behind expanded node k. Every array is made read-only in place, not
    copied: the pairs glue makes share one omega_xhat and one mu_hat.
    """

    omega_xhat: np.ndarray
    omega_yhat: np.ndarray
    mu_hat: np.ndarray
    source_index: np.ndarray
    target_index: np.ndarray

    def __post_init__(self):
        for a in (self.omega_xhat, self.omega_yhat, self.mu_hat,
                  self.source_index, self.target_index):
            a.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.mu_hat)

    def base_network(self) -> MeasureNetwork:
        return MeasureNetwork(self.omega_xhat, self.mu_hat)


def _pieces(X: MeasureNetwork, Y: MeasureNetwork, C
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support entries (src, tgt) of C, a Coupling or a matrix checked to
    couple the two measures, in row-major order, with their masses
    renormalized per source row so that each row sums to mu_X."""
    mat = _coupling_of(C, X.mu, Y.mu).matrix
    src, tgt = np.nonzero(_support_mask(mat))  # row-major: src ascends
    masses = mat[src, tgt]
    # exact mass preservation per source node: its copies are the run of
    # entries of its row, at least one, which is its own sum when alone
    counts = np.bincount(src, minlength=X.size)
    ends = np.cumsum(counts)
    sums = masses[ends - 1]
    for i in np.flatnonzero(counts > 1).tolist():
        sums[i] = masses[ends[i] - counts[i]:ends[i]].sum()
    masses *= (X.mu / sums)[src]
    return src, tgt, masses


def blow_up(X: MeasureNetwork, Y: MeasureNetwork, C) -> AlignedPair:
    """Expand a coupling of X and Y into an aligned pair.

    C, a Coupling or a matrix, must couple (mu_X, mu_Y), which is checked.
    Masses are renormalized per source row so that the copies of each X
    node reproduce its measure exactly. The expansion has support_size(C)
    nodes: at most n + m - 1 on a vertex coupling and up to n * m on an
    interior one, which is not thinned first.
    """
    src, tgt, masses = _pieces(X, Y, C)
    return AlignedPair(omega_xhat=X.omega[np.ix_(src, src)],
                       omega_yhat=Y.omega[np.ix_(tgt, tgt)],
                       mu_hat=masses, source_index=src, target_index=tgt)


def _key(rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """(row, position) pairs as complex numbers, which numpy sorts and
    searches lexicographically: by row, then by position in the row."""
    return rows + 1j * pos


def glue(X: MeasureNetwork, members: list[MeasureNetwork],
         couplings: list) -> list[AlignedPair]:
    """Blow X up once for a coupling to each member (a Coupling or a
    matrix, checked as in blow_up): one aligned pair per member, all on the
    same base.

    The blow-up of C_k cuts mu_X(x) into consecutive pieces, one per
    support entry of row x in column order. The glued base cuts mu_X(x) at
    the union of all members' cut points, and each resulting piece is one
    node (x, y_1, ..., y_K), where y_k is the member node whose piece holds
    it. Cut points within SUPPORT_REL_THRESHOLD * mu_X(x) of the one before
    them or of the row's end are dropped, so rounding leaves no slivers.
    Summed over each node's copies, member k's diagonal coupling is its
    blow-up's up to those dropped slivers, so each pair certifies C_k's
    distortion. The base has at
    most X.size + sum_k (support_size(C_k) - X.size) nodes and does not
    depend on the order of the members.
    """
    cuts, targets = [], []
    for Y, C in zip(members, couplings):
        src, tgt, masses = _pieces(X, Y, C)
        running = np.zeros((X.size, Y.size))
        running[src, tgt] = masses
        ends = np.cumsum(running, axis=1)[src, tgt]
        inner = np.flatnonzero(src[1:] == src[:-1])  # not last in its row
        cuts.append(_key(src[inner], ends[inner]))
        targets.append(tgt)
    points = np.sort(np.concatenate(cuts))
    row, pos = points.real.astype(int), points.imag
    prev = np.where(_starts(row), 0.0, np.r_[0.0, pos[:-1]])
    eps = SUPPORT_REL_THRESHOLD * X.mu[row]
    keep = (pos - prev > eps) & (X.mu[row] - pos > eps)
    # the kept cuts and each row's end, in (row, position) order
    points = np.sort(np.concatenate([points[keep],
                                     _key(np.arange(X.size), X.mu)]))
    row, end = points.real.astype(int), points.imag
    start = np.where(_starts(row), 0.0, np.r_[0.0, end[:-1]])
    mu_hat = end - start
    mids = _key(row, start + mu_hat / 2)
    omega_xhat = X.omega[np.ix_(row, row)]
    pairs = []
    for Y, cut, tgt in zip(members, cuts, targets):
        # member entries before a piece: those of earlier rows, one more
        # than their cuts per row, and those of its row cut below it
        y = tgt[row + np.searchsorted(cut, mids)]
        pairs.append(AlignedPair(omega_xhat=omega_xhat,
                                 omega_yhat=Y.omega[np.ix_(y, y)],
                                 mu_hat=mu_hat, source_index=row,
                                 target_index=y))
    return pairs


def _starts(row: np.ndarray) -> np.ndarray:
    """Where a sorted row index array starts a new row."""
    return np.diff(row, prepend=-1) != 0


def aligned_distance(pair: AlignedPair) -> float:
    """Distance certified by the aligned pair: half the distortion of its
    diagonal coupling."""
    diff2 = (pair.omega_xhat - pair.omega_yhat) ** 2
    dis2 = float(pair.mu_hat @ diff2 @ pair.mu_hat)
    return float(np.sqrt(dis2)) / 2.0
