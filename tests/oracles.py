"""Independent reference implementations used only by the tests.

Nothing here shares code with the package: the vertex enumeration walks
spanning trees, the larger transport oracle calls scipy's HiGHS directly,
the objective is the explicit four-index sum, gradients come from finite
differences, the naive geodesic walks the coupling's support in the
product space, and the PCA oracle is a dense decomposition in rescaled
coordinates. Slow on purpose; keep sizes tiny. Only a few helpers touch
gwnet, for its public types and errors, so that tests can use them where
the library's own results go: the naive geodesic, the couplings of a
network with its expansion, the compressed target as a block average of
an explicit blow-up and its unweighted counterpart, and the Frechet loss
from cold distance solves.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from gwnet import Coupling, GwnetError, MeasureNetwork, gw_distance


def _tree_flows(edges, p, q, n, m):
    """Unique flow on a spanning tree of the bipartite row/column graph.

    Row node i must ship p[i]; column node j must receive q[j]. Stripping
    degree-one nodes determines each edge flow in turn. Flows may be
    negative: that tree is then an infeasible basis.
    """
    flow = {}
    rp = np.array(p, dtype=float)
    cq = np.array(q, dtype=float)
    alive = set(edges)
    while alive:
        row_deg = {}
        col_deg = {}
        for i, j in alive:
            row_deg[i] = row_deg.get(i, 0) + 1
            col_deg[j] = col_deg.get(j, 0) + 1
        leaf = None
        for i, j in alive:
            if row_deg[i] == 1:
                leaf = ("r", (i, j))
                break
            if col_deg[j] == 1:
                leaf = ("c", (i, j))
                break
        if leaf is None:
            return None  # cycle; not a tree
        kind, (i, j) = leaf
        f = rp[i] if kind == "r" else cq[j]
        flow[(i, j)] = f
        rp[i] -= f
        cq[j] -= f
        alive.discard((i, j))
    return flow


def transport_vertices(p, q, tol=1e-12) -> list[np.ndarray]:
    """Every vertex of the transportation polytope of (p, q).

    A vertex is the flow pattern of some spanning tree of the complete
    bipartite graph on n + m nodes: n + m - 1 acyclic edges determine all
    flows by leaf stripping, and the tree is a vertex iff every flow is
    nonnegative. Degenerate vertices arise from several trees; duplicates
    are dropped. Exponential in n + m: for oracle use only.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = len(p), len(q)
    all_edges = [(i, j) for i in range(n) for j in range(m)]
    out = []
    seen = set()
    for subset in itertools.combinations(all_edges, n + m - 1):
        # union-find cycle check; n + m - 1 acyclic edges span the graph
        parent = list(range(n + m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for i, j in subset:
            ra, rb = find(i), find(n + j)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        flow = _tree_flows(subset, p, q, n, m)
        if flow is None or any(f < -tol for f in flow.values()):
            continue
        mat = np.zeros((n, m))
        for (i, j), f in flow.items():
            mat[i, j] = max(f, 0.0)
        key = tuple(np.round(mat, 9).ravel())
        if key not in seen:
            seen.add(key)
            out.append(mat)
    return out


def brute_min_ot(cost, p, q) -> tuple[float, np.ndarray]:
    """Exact transport optimum: a linear objective attains its minimum at
    a polytope vertex, so the vertex sweep is the global answer."""
    cost = np.asarray(cost, dtype=float)
    best_val, best_mat = None, None
    for v in transport_vertices(p, q):
        val = float(np.sum(cost * v))
        if best_val is None or val < best_val:
            best_val, best_mat = val, v
    return best_val, best_mat


# masses up to 1e4 still resolve 1e-10 in double precision
MASS_SCALE = 1e4


def highs_min_ot(cost, p, q) -> float:
    """Transport optimum from scipy's HiGHS LP on the dense marginal
    system: every row sum, and every column sum but the last, which mass
    balance implies. For sizes the vertex sweep cannot reach.

    HiGHS's feasibility tolerances are absolute. At the default 1e-7, a
    row mass near 1e-8 may be left unshipped, which lowers the objective
    by that mass times a cost gap: 5e-8 on a 140 x 6 problem with row
    masses down to 1e-10. So the tolerances are set to HiGHS's tightest,
    1e-10, the masses are multiplied by MASS_SCALE, putting masses down to
    1e-12 two decades above the primal tolerance (a 3 x 3 problem with
    masses of 1e-10 was reported infeasible without it), and the costs are
    divided by their largest magnitude. The objective is then good to
    about 1e-10 times the largest cost, from the dual tolerance."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    scale = float(np.abs(cost).max()) or 1.0
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)),
                      np.kron(np.ones(n), np.eye(m))[:-1]])
    b_eq = np.concatenate([p, q[:-1]]) * MASS_SCALE
    res = linprog(cost.ravel() / scale, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun) * scale / MASS_SCALE


def gw_objective(X, Y, C) -> float:
    """Squared distortion by the explicit four-index sum."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    C = np.asarray(C, dtype=float)
    L = (X[:, None, :, None] - Y[None, :, None, :]) ** 2
    return float(np.einsum("ijkl,ij,kl->", L, C, C))


def brute_min_gw(X, Y, p, q) -> tuple[float, np.ndarray]:
    """Minimum squared distortion over polytope vertices.

    This equals the global optimum whenever the objective is concave over
    the polytope, which holds when X and Y are both symmetric positive
    semidefinite (the quadratic term is then concave and the marginal
    terms are constant). For general matrices it is only the vertex
    minimum.
    """
    best_val, best_mat = None, None
    for v in transport_vertices(p, q):
        val = gw_objective(X, Y, v)
        if best_val is None or val < best_val:
            best_val, best_mat = val, v
    return best_val, best_mat


def fd_gradient(X, Y, C, h=1e-6) -> np.ndarray:
    """Central finite differences of the squared distortion in C.

    The objective is a polynomial in the entries of C, so differencing at
    infeasible perturbed points is still the right derivative.
    """
    C = np.asarray(C, dtype=float)
    g = np.zeros_like(C)
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            up = C.copy()
            dn = C.copy()
            up[i, j] += h
            dn[i, j] -= h
            g[i, j] = (gw_objective(X, Y, up) - gw_objective(X, Y, dn)) \
                / (2 * h)
    return g


def marginal_gradient(X, Y, C) -> np.ndarray:
    """The terms of the gradient of the squared distortion at any n x m
    matrix C that solve_gw leaves out of its -2 (X C Y^T + X^T C Y): with
    r, c the row and column sums of C, (X.^2 + X^T.^2) r per row plus
    (Y.^2 + Y^T.^2) c per column. On the coupling polytope they are row
    and column constants; finite differences off it see them.
    """
    C = np.asarray(C, dtype=float)
    r, c = C.sum(axis=1), C.sum(axis=0)
    return ((X**2 + X.T**2) @ r)[:, None] + ((Y**2 + Y.T**2) @ c)[None, :]


def inner_product(v, w) -> float:
    """<v, w> = sum_ij v_ij w_ij mu_i mu_j, the L2(mu x mu) product of two
    tangent vectors on one base."""
    assert np.array_equal(v.base.mu, w.base.mu)
    mu = v.base.mu
    return float(mu @ (v.f * w.f) @ mu)


def norm(v) -> float:
    return float(np.sqrt(inner_product(v, v)))


def geodesic_naive(X, Y, C):
    """Reference geodesic on the coupling's support in the product space.

    Returns a function t -> MeasureNetwork whose nodes are the support
    entries (i, j) of C (those above 1e-9 times the largest, in
    row-major order), with measure the coupling values and weights
    (1 - t) omega_X(i, i') + t omega_Y(j, j').
    """
    mat = C.matrix
    if mat.shape != (X.size, Y.size):
        raise GwnetError(f"coupling shape {mat.shape}")
    src, tgt = np.nonzero(mat > 1e-9 * mat.max())
    masses = mat[src, tgt] / mat[src, tgt].sum()
    wx = X.omega[np.ix_(src, src)]
    wy = Y.omega[np.ix_(tgt, tgt)]

    def at(t: float) -> MeasureNetwork:
        if not 0.0 <= t <= 1.0:
            raise GwnetError(f"t={t} outside [0, 1]")
        return MeasureNetwork((1.0 - t) * wx + t * wy, masses)

    return at


def _copy_coupling(net, index, mu_hat) -> Coupling:
    """Coupling of net with an expansion of it in which expanded node k
    is a copy of node index[k] and keeps its own mass mu_hat[k]. Every
    copy pair then carries the weight of its original pair, so the
    distortion is zero."""
    mat = np.zeros((net.size, len(mu_hat)))
    for k, i in enumerate(index):
        mat[i, k] = mu_hat[k]
    return Coupling(mat, net.mu, mu_hat)


def expansion_coupling_source(X, pair) -> Coupling:
    """Coupling of X with the expanded base of an aligned pair."""
    return _copy_coupling(X, pair.source_index, pair.mu_hat)


def expansion_coupling_target(Y, pair) -> Coupling:
    """Coupling of Y with the expanded target of an aligned pair."""
    return _copy_coupling(Y, pair.target_index, pair.mu_hat)


def compressed_target(X, Y, C) -> np.ndarray:
    """Y's weights on the blow-up of the coupling C of X and Y, averaged
    over the copy pairs of each pair of X nodes, weighted by the products
    of the copies' masses. Every nonzero entry (i, j) of C is one copy of
    X node i that carries mass C[i, j] and the weights of Y node j."""
    C = np.asarray(C, dtype=float)
    copies = [(i, j, C[i, j]) for i in range(C.shape[0])
              for j in range(C.shape[1]) if C[i, j] > 0]
    total = np.zeros((X.size, X.size))
    mass = np.zeros((X.size, X.size))
    for i, j, a in copies:
        for k, l, b in copies:
            total[i, k] += a * b * Y.omega[j, l]
            mass[i, k] += a * b
    return total / mass


def plain_copy_average(X, Y, C) -> np.ndarray:
    """Y's weights on the blow-up of the coupling C of X and Y, averaged
    over the copy pairs of each pair of X nodes with equal weights, the
    copies' masses ignored: compressed_target without its mass weights."""
    C = np.asarray(C, dtype=float)
    copies = [(i, j) for i in range(C.shape[0])
              for j in range(C.shape[1]) if C[i, j] > 0]
    total = np.zeros((X.size, X.size))
    count = np.zeros((X.size, X.size))
    for i, j in copies:
        for k, l in copies:
            total[i, k] += Y.omega[j, l]
            count[i, k] += 1
    return total / count


def frechet_loss(S, Z, params=None) -> float:
    """Mean squared distance from Z to the members of S, each from a cold
    solve with the GwParams params."""
    return sum(gw_distance(Z, Y, params) ** 2 for Y in S) / len(S)


def dense_weighted_pca(rows, weights):
    """Principal directions under the inner product <u, v> = sum u v w.

    Rescaling coordinates by sqrt(w) turns the weighted geometry into the
    Euclidean one; a plain SVD there maps back by dividing the singular
    vectors by sqrt(w). Returns (mean_row, components, ratios) with
    components unit-norm in the weighted inner product.
    """
    rows = np.asarray(rows, dtype=float)
    w = np.asarray(weights, dtype=float)
    mean = rows.mean(axis=0)
    tilde = (rows - mean) * np.sqrt(w)
    _, s, vt = np.linalg.svd(tilde, full_matrices=False)
    variances = s ** 2
    keep = variances > variances.sum() * 1e-14 if variances.sum() > 0 \
        else np.zeros(len(s), dtype=bool)
    comps = vt[keep] / np.sqrt(w)[None, :]
    ratios = variances[keep] / variances.sum()
    return mean, comps, ratios


def half_sample_block_means(omega, gap=8.0) -> np.ndarray:
    """Half the sample block means of a block-model draw with uniform
    node measure: the midpoint of the draw and an all-zeros block network.

    Nodes of one block share their row and column means, so two nodes sit
    in the same block iff the RMS difference of their concatenated row and
    column profiles is small. At 20-node blocks and variance 5 that
    difference is about sqrt(2 * 5) = 3.2 inside a block and at least 25
    between blocks whose means differ by 25 in every entry, so the default
    gap of 8 separates them with a wide margin. Blocks are numbered in
    order of their first node; compare up to relabeling.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    profiles = np.hstack([omega, omega.T])
    labels = -np.ones(n, dtype=int)
    leaders = []
    for i in range(n):
        for b, k in enumerate(leaders):
            if np.sqrt(np.mean((profiles[i] - profiles[k]) ** 2)) < gap:
                labels[i] = b
                break
        else:
            labels[i] = len(leaders)
            leaders.append(i)
    B = len(leaders)
    means = np.empty((B, B))
    for a in range(B):
        for b in range(B):
            means[a, b] = omega[np.ix_(labels == a, labels == b)].mean()
    return means / 2.0


def relabeled_gap(a, b) -> float:
    """Smallest worst-entry difference between a and b over simultaneous
    row-and-column relabelings of a; inf if the shapes differ."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    best = float("inf")
    for perm in itertools.permutations(range(a.shape[0])):
        p = list(perm)
        best = min(best, float(np.max(np.abs(a[np.ix_(p, p)] - b))))
    return best
