"""Exact linear optimal transport on the transportation polytope.

Solves min <cost, C> over couplings of (p, q) and returns a vertex of the
polytope. Vertices matter: their support is a forest with at most n + m - 1
entries, which is what the blow-up construction downstream relies on.

Two paths, chosen by the input:

- n == m and every entry of p and q the same number: the polytope is a
  scaled Birkhoff polytope, whose vertices are the permutation matrices
  times that mass (Birkhoff-von Neumann). The problem is then an assignment
  problem, solved exactly by scipy's linear_sum_assignment. Its n entries
  are the stored masses, so the marginals hold exactly. The first
  assignment solve loads scipy's compiled assignment extension alone, from
  its file, and not scipy.optimize, which would add about 0.4 s and 48 MB
  to the process for this one function.
- every other shape: an exact transportation (network) simplex in Python
  and numpy. It starts from a matrix-minimum spanning tree, prices every
  cell at once with numpy, and keeps its trees strongly feasible, so
  degenerate pivots cannot cycle. The flows are recomputed from p and q on
  the final tree: the vertex has at most n + m - 1 entries and meets its
  marginals to rounding. A sequence of problems with the same marginals,
  such as the Frank-Wolfe steps of one solve, can share a basis list, so
  that each solve starts from the tree the previous one ended on.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .networks import Coupling, GwnetError, PROB_TOL, _freeze


# pricing takes reduced costs above -PRICE_TOL times the largest |cost| as
# zero: tree-arc reduced costs carry rounding far below it, and leaving such
# a cell out costs at most that much per unit of mass
PRICE_TOL = 1e-12
# the simplex gives up after this many pivots per row and column
PIVOTS_PER_NODE = 50


@dataclass(frozen=True)
class OtProblem:
    """Cost and marginals of one transport problem, stored read-only."""

    cost: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        cost, p, q = _freeze(self.cost), _freeze(self.p), _freeze(self.q)
        if p.ndim != 1 or q.ndim != 1:
            raise GwnetError(f"p and q must be 1-D, got shapes {p.shape} "
                             f"and {q.shape}")
        if cost.ndim != 2 or cost.shape != (p.shape[0], q.shape[0]):
            raise GwnetError(
                f"cost shape {cost.shape} does not match marginals "
                f"({p.shape[0]}, {q.shape[0]})")
        _check_cost(cost)
        for name, v in (("p", p), ("q", q)):
            # written so that NaN and infinite entries fail too
            if not (np.all(v > 0) and abs(v.sum() - 1.0) <= PROB_TOL):
                raise GwnetError(f"{name} is not a probability vector")
        # _assignment is not a field: the path solve_linear_ot takes, which
        # p and q alone decide
        self.__dict__.update(cost=cost, p=p, q=q,
                             _assignment=_is_assignment(p, q))

    @classmethod
    def _step(cls, cost: np.ndarray, p: np.ndarray, q: np.ndarray,
              assignment: bool) -> "OtProblem":
        """Problem of one Frank-Wolfe step of solve_gw. p and q are the two
        networks' read-only measures, which MeasureNetwork has checked, and
        assignment is _is_assignment(p, q), decided once per solve. cost is
        the step's fresh gradient, which the caller never writes to again:
        only its finiteness is checked, and it is made read-only in place
        instead of copied."""
        _check_cost(cost)
        cost.flags.writeable = False
        prob = object.__new__(cls)
        prob.__dict__.update(cost=cost, p=p, q=q, _assignment=assignment)
        return prob


def _check_cost(cost: np.ndarray) -> None:
    if not np.isfinite(cost).all():
        raise GwnetError("cost contains non-finite entries")


def _is_assignment(p: np.ndarray, q: np.ndarray) -> bool:
    """Equal sizes with every mass the same number: the vertices are then
    scaled permutations, found by solving an assignment problem."""
    return (len(p) == len(q) and bool(np.all(p == p[0]))
            and bool(np.all(q == p[0])))


# scipy's linear_sum_assignment, loaded by the first assignment solve
_lsap = None
_LSAP_NAME = "scipy.optimize._lsap"


def _lsap_path() -> str | None:
    """File of scipy's compiled assignment extension, found without
    importing scipy; None when this scipy has no such file."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_lsap():
    """scipy's linear_sum_assignment: loaded from the extension file alone
    where there is one, else imported from scipy.optimize. Loading a
    single-phase extension enters it in sys.modules, without its parent
    packages, so the entry is taken out again unless it was there before."""
    path = _lsap_path()
    if path is None:
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    loaded = _LSAP_NAME in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(_LSAP_NAME, path)
    spec = importlib.util.spec_from_file_location(_LSAP_NAME, path,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    if not loaded:
        sys.modules.pop(_LSAP_NAME, None)
    return module.linear_sum_assignment


def _assign(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a minimum-cost assignment of a square cost."""
    global _lsap
    if _lsap is None:
        _lsap = _load_lsap()
    return _lsap(cost)


def _initial_tree(cost: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Matrix-minimum basis as a rooted spanning tree.

    Cells are taken in order of increasing cost (row-major among equal
    costs). A cell whose row and column are both open ships what it can and
    closes one of them: the column when both run out together, so the row
    stays open with nothing left and later gets a zero-flow cell. The last
    open column never closes, so the last cell hangs the last row under it,
    and the last open row stays open while several columns are; without
    rounding, the masses force both anyway. Each cell hangs the line it
    closes under the line it leaves open, so after n + m - 1 cells the one
    line still open is the root of a spanning tree. Zero-flow cells hang a
    row under a column: their row-to-column arcs point up to the root, and
    the tree is strongly feasible.

    Returns the parent and the flow on the arc to the parent per node, rows
    first and then columns.
    """
    n, m = cost.shape
    rp, cq = p.tolist(), q.tolist()
    row_open, col_open = [True] * n, [True] * m
    open_rows, open_cols = n, m
    parent, flow = [-1] * (n + m), [0.0] * (n + m)
    for c in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(c, m)
        if not (row_open[i] and col_open[j]):
            continue
        t = min(rp[i], cq[j])
        rp[i] -= t
        cq[j] -= t
        if open_cols == 1 or (open_rows > 1 and rp[i] < cq[j]):
            row_open[i] = False
            open_rows -= 1
            parent[i], flow[i] = n + j, t
        else:
            col_open[j] = False
            open_cols -= 1
            parent[n + j], flow[n + j] = i, t
        if open_rows + open_cols == 1:
            return parent, flow


def _hang(stack, parent, children, depth, pi, cl, n):
    """Set the depth and potential of each node in the subtrees under the
    nodes on stack from its parent's, so that u_i + v_j = cost_ij holds
    exactly on the arc up."""
    while stack:
        x = stack.pop()
        y = parent[x]
        depth[x] = depth[y] + 1
        pi[x] = (cl[x][y - n] if x < n else cl[y][x - n]) - pi[y]
        stack += children[x]


def _network_simplex(cost: np.ndarray, p: np.ndarray, q: np.ndarray,
                     basis: list | None = None) -> tuple[np.ndarray, int]:
    """Optimal vertex of the transportation polytope, and the pivot count.

    The transport problem is a network flow from n row nodes (supplies p)
    to m column nodes (demands q) over the n x m row-to-column arcs. Its
    bases are spanning trees of that bipartite graph, kept rooted with a
    parent pointer, a depth and the flow to the parent per node, and node
    potentials with u_i + v_j = cost_ij on every tree arc. Each pivot:

    - prices every cell at once with numpy and enters the most negative
      reduced cost cost_ij - u_i - v_j (Dantzig's rule; the first cell in
      row-major order on ties), stopping when none is below -PRICE_TOL
      times the largest |cost|;
    - pushes the largest feasible flow round the cycle that the entering
      cell closes in the tree;
    - removes the last blocking arc met when walking the cycle along the
      flow from its apex. This keeps the tree strongly feasible
      (Cunningham 1976): every zero-flow arc points up to the root, so some
      flow can be pushed from any node to the root, and degenerate pivots
      cannot cycle;
    - hangs the cut-off subtree back from the entering cell, recomputing
      its depths and potentials from their parents, so rounding does not
      build up over pivots.

    More than PIVOTS_PER_NODE * (n + m) pivots raise GwnetError. The flows
    returned are recomputed from p and q on the final tree, stripping
    leaves towards the root, so the vertex has at most n + m - 1 entries
    and meets its marginals to rounding.

    A non-empty basis holds the parents and flows of the tree an earlier
    solve with the same p and q ended on; the simplex starts from it in
    place of the matrix-minimum tree. Any basis list passed is left holding
    the final tree.
    """
    n, m = cost.shape
    cl = cost.tolist()
    parent, flow = basis if basis else _initial_tree(cost, p, q)
    children = [[] for _ in range(n + m)]
    for x, y in enumerate(parent):
        if y >= 0:
            children[y].append(x)
    depth, pi = [0] * (n + m), [0.0] * (n + m)
    _hang(list(children[parent.index(-1)]), parent, children, depth, pi,
          cl, n)

    tol = PRICE_TOL * float(np.abs(cost).max())
    cap = PIVOTS_PER_NODE * (n + m)
    pivots = 0
    reduced = np.empty_like(cost)
    while True:
        u = np.array(pi)
        np.subtract(cost, u[:n, None], out=reduced)
        reduced -= u[n:]
        e = int(reduced.argmin())
        if not reduced.item(e) < -tol:
            break
        if pivots >= cap:
            raise GwnetError(
                f"transport simplex stopped at its cap of {cap} pivots")
        pivots += 1
        k, l = divmod(e, m)
        K, L = k, n + l

        # tree paths from K and L up to their apex; flow enters along K -> L,
        # climbs from L to the apex and comes down to K, so it runs against
        # the row-to-column arcs climbed from a column or descended to a row
        kpath, lpath = [], []
        a, b = K, L
        while depth[a] > depth[b]:
            kpath.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            lpath.append(b)
            b = parent[b]
        while a != b:
            kpath.append(a)
            a = parent[a]
            lpath.append(b)
            b = parent[b]
        # the last blocking arc from the apex: the highest on L's side,
        # else the lowest on K's side
        theta_l = theta_k = float("inf")
        out_l = out_k = -1
        for x in lpath:
            if x >= n and flow[x] <= theta_l:
                theta_l, out_l = flow[x], x
        for x in kpath:
            if x < n and flow[x] < theta_k:
                theta_k, out_k = flow[x], x
        if theta_l <= theta_k:
            theta, out, s, t, path = theta_l, out_l, L, K, lpath
        else:
            theta, out, s, t, path = theta_k, out_k, K, L, kpath
        for x in lpath:
            flow[x] += -theta if x >= n else theta
        for x in kpath:
            flow[x] += -theta if x < n else theta

        # cut out's arc, hang s under t and reverse the arcs from s to out
        seg = path[:path.index(out) + 1]
        children[parent[out]].remove(out)
        children[t].append(s)
        for a, b in zip(seg, seg[1:]):
            children[b].remove(a)
            children[a].append(b)
        prev, prev_flow = t, theta
        for x in seg:
            nxt_flow = flow[x]
            parent[x], flow[x] = prev, prev_flow
            prev, prev_flow = x, nxt_flow
        _hang([s], parent, children, depth, pi, cl, n)

    excess = p.tolist() + (-q).tolist()
    cells, values = [], []
    for x in sorted(range(n + m), key=depth.__getitem__, reverse=True):
        y = parent[x]
        if y >= 0:
            excess[y] += excess[x]
            if x < n:
                cells.append(x * m + y - n)
                values.append(excess[x])
            else:
                cells.append(y * m + x - n)
                values.append(-excess[x])
    matrix = np.zeros(n * m)
    # a zero-flow arc can come out as rounding dust below zero
    matrix[cells] = np.maximum(values, 0.0)
    if basis is not None:
        basis[:] = parent, flow
    return matrix.reshape(n, m), pivots


def solve_linear_ot(prob: OtProblem,
                    _basis: list | None = None) -> Coupling:
    """Minimize <cost, C> over the transportation polytope of (p, q).

    Returns a vertex coupling (support at most n + m - 1 entries). Equal
    sizes with all masses equal are solved as an assignment problem (the
    vertices are scaled permutations, n entries of exactly p[0]); any other
    shape with more than one row and column goes through the transportation
    simplex, whose marginals hold to rounding.

    _basis is private to solve_gw: a list, empty at first, that the simplex
    leaves holding its final tree and starts from on the next call. Every
    problem passed with the same list must have the same p and q.
    """
    cost, p, q = prob.cost, prob.p, prob.q
    n, m = cost.shape
    if n == 1:
        matrix = q[None, :].copy()
    elif m == 1:
        matrix = p[:, None].copy()
    elif prob._assignment:
        rows, cols = _assign(cost)
        matrix = np.zeros((n, m))
        matrix[rows, cols] = p
    else:
        matrix, _ = _network_simplex(cost, p, q, _basis)
    # the vertex is fresh and p and q are the problem's read-only arrays
    return Coupling._adopt(matrix, p, q)
