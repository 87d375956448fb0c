"""Exact linear optimal transport on the transportation polytope.

Solves min <cost, C> over couplings of (p, q) and returns a vertex of the
polytope. Vertices matter: their support is a forest with at most n + m - 1
entries, which is what the blow-up construction downstream relies on.

Two paths, chosen by the input:

- n == m and every entry of p and q the same number: the polytope is a
  scaled Birkhoff polytope, whose vertices are the permutation matrices
  times that mass (Birkhoff-von Neumann). The problem is then an assignment
  problem, solved exactly by scipy's linear_sum_assignment. Its n entries
  are the stored masses, so the marginals hold exactly.
- every other shape: the LP is solved with scipy's dual simplex (basic
  solutions, deterministic), then the flow values are recomputed exactly
  on the support forest so the marginals hold to machine precision rather
  than LP tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .networks import Coupling, GwnetError, PROB_TOL


class InfeasibleMarginalsError(GwnetError):
    pass


@dataclass(frozen=True)
class OtProblem:
    cost: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if cost.ndim != 2 or cost.shape != (p.shape[0], q.shape[0]):
            raise GwnetError(
                f"cost shape {cost.shape} does not match marginals "
                f"({p.shape[0]}, {q.shape[0]})")
        if not np.all(np.isfinite(cost)):
            raise GwnetError("cost contains non-finite entries")
        for name, v in (("p", p), ("q", q)):
            # written so that NaN and infinite entries fail too
            if not (np.all(v > 0) and abs(v.sum() - 1.0) <= PROB_TOL):
                raise InfeasibleMarginalsError(
                    f"{name} is not a probability vector")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def _support_mask(x: np.ndarray, threshold: float) -> np.ndarray:
    """Entries of x above threshold. Marginals are positive, so every row
    and column carries mass: one that thresholding empties keeps its
    largest entry."""
    mask = x > threshold
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, int(np.argmax(x[i]))] = True
    for j in np.flatnonzero(~mask.any(axis=0)):
        mask[int(np.argmax(x[:, j])), j] = True
    return mask


def _repair_on_forest(x: np.ndarray, p: np.ndarray,
                      q: np.ndarray) -> np.ndarray:
    """Recompute flows exactly from the marginals on the support of x.

    The support of a basic LP solution is a forest in the bipartite
    row/column graph, so peeling rows or columns with a single remaining
    entry determines every flow exactly. Cycles can only appear if the
    support was read off a non-basic point; the smallest entry is dropped
    to break them. Leaves are processed off a stack, so one pass costs
    time linear in the support size.
    """
    n, m = x.shape
    support = _support_mask(x, max(x.max(initial=0.0), 1.0) * 1e-12)
    ei, ej = np.nonzero(support)
    row_entries: list[set] = [set() for _ in range(n)]
    col_entries: list[set] = [set() for _ in range(m)]
    for i, j in zip(ei.tolist(), ej.tolist()):
        row_entries[i].add(j)
        col_entries[j].add(i)

    out = np.zeros_like(x)
    rp = p.astype(float).copy()
    cq = q.astype(float).copy()
    remaining = len(ei)
    stack = [("r", i) for i in range(n) if len(row_entries[i]) == 1]
    stack += [("c", j) for j in range(m) if len(col_entries[j]) == 1]
    while remaining:
        while stack:
            kind, a = stack.pop()
            if kind == "r":
                if len(row_entries[a]) != 1:
                    continue
                j = row_entries[a].pop()
                out[a, j] = rp[a]
                cq[j] -= rp[a]
                rp[a] = 0.0
                col_entries[j].discard(a)
                if len(col_entries[j]) == 1:
                    stack.append(("c", j))
            else:
                if len(col_entries[a]) != 1:
                    continue
                i = col_entries[a].pop()
                out[i, a] = cq[a]
                rp[i] -= cq[a]
                cq[a] = 0.0
                row_entries[i].discard(a)
                if len(row_entries[i]) == 1:
                    stack.append(("r", i))
            remaining -= 1
        if remaining:
            # cycle: drop the smallest remaining support entry
            best = None
            for i in range(n):
                for j in row_entries[i]:
                    if best is None or x[i, j] < x[best]:
                        best = (i, j)
            i, j = best
            row_entries[i].discard(j)
            col_entries[j].discard(i)
            remaining -= 1
            if len(row_entries[i]) == 1:
                stack.append(("r", i))
            if len(col_entries[j]) == 1:
                stack.append(("c", j))
    # degenerate flows can come out as -0.0 or float dust; clamp
    out[out < 0] = 0.0
    return out


def _marginal_constraints(n: int, m: int):
    """Sparse equality system: all n row sums plus the first m - 1 column
    sums. The last column is implied by mass balance; dropping it keeps the
    system full rank."""
    ci = np.arange(n * m)
    ri = np.repeat(np.arange(n), m)
    cj = np.tile(np.arange(m), n)
    keep = cj < m - 1
    rows = np.concatenate([ri, n + cj[keep]])
    cols = np.concatenate([ci, ci[keep]])
    data = np.ones(len(rows))
    return sparse.csr_matrix((data, (rows, cols)), shape=(n + m - 1, n * m))


def solve_linear_ot(prob: OtProblem) -> tuple[Coupling, float]:
    """Minimize <cost, C> over the transportation polytope of (p, q).

    Returns a vertex coupling (support at most n + m - 1 entries) and the
    objective value at it, measured with the original cost matrix. Equal
    sizes with all masses equal are solved as an assignment problem (the
    vertices are scaled permutations, n entries of exactly p[0]); any other
    shape goes through the dual simplex and the repair on its support.
    """
    cost, p, q = prob.cost, prob.p, prob.q
    n, m = cost.shape
    if n == 1:
        matrix = q[None, :].copy()
        return Coupling(matrix, p, q), float(np.sum(cost * matrix))
    if m == 1:
        matrix = p[:, None].copy()
        return Coupling(matrix, p, q), float(np.sum(cost * matrix))
    if n == m and np.all(p == p[0]) and np.all(q == p[0]):
        rows, cols = linear_sum_assignment(cost)
        matrix = np.zeros((n, m))
        matrix[rows, cols] = p
        return Coupling(matrix, p, q), float(np.sum(cost * matrix))

    scale = float(np.max(np.abs(cost)))
    c = (cost / scale if scale > 0 else cost).ravel()
    b_eq = np.concatenate([p, q[:-1]])
    res = linprog(c, A_eq=_marginal_constraints(n, m), b_eq=b_eq,
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise InfeasibleMarginalsError(f"transport LP failed: {res.message}")
    matrix = _repair_on_forest(res.x.reshape(n, m), p, q)
    return Coupling(matrix, p, q), float(np.sum(cost * matrix))
