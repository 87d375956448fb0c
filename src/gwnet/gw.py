"""Distance computation between measure networks.

The squared distortion of a coupling C is the four-index sum

    dis(C)^2 = sum_{i,j,k,l} (X_ik - Y_jl)^2 C_ij C_kl

and the distance between networks is half the infimum of dis over the
coupling polytope. The package evaluates it by the equivalent matrix form

    dis(C)^2 = <p, X.^2 p> + <q, Y.^2 q> - 2 <C, X C Y^T>

which costs O(n^2 m + n m^2) instead of O(n^2 m^2); the four-index sum
itself is kept as a test oracle. The solver is Frank-Wolfe over the polytope:
linearize at C, send the gradient to the exact transport subsolver, then
take the exact minimizer of the 1-D quadratic along the segment toward the
returned vertex V. Along D = V - C the objective is exactly
J + <G, D> t + <G(D), D> t^2 / 2 and the gradient G + t G(D), with
G(M) = -2 (X M Y^T + X^T M Y) (both terms, as weights may be asymmetric):
the marginal terms of the full gradient are row and column constants on
the polytope, so they move no LP argmin and vanish against D. One operator
call per iteration thus gives both the step and the next gradient. On a
flat segment (every point ties) the step goes all the way to the vertex,
so a solve that meets one ends on a vertex, with at most n + m - 1
support entries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import (Coupling, GwnetError, MeasureNetwork, SolveReport,
                       _coupling_of, check_count)
from .linear_ot import OtProblem, _is_assignment, solve_linear_ot


# FW stops once an iteration lowers the objective by no more than this
# fraction of its value
OBJECTIVE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GwParams:
    """Knobs for the outer solver.

    Every iteration steps to the exact minimizer of the objective on the
    segment toward the new vertex. A solve with `given`, a Coupling or a
    matrix coupling the two networks' measures, runs from it alone.
    restarts apply only to a solve without it: the product coupling and
    that many seeded random vertices start, and the best final objective
    wins. Params compare and hash by identity (`given` may be an array).
    """

    max_outer_iters: int = 200
    given: Coupling | np.ndarray | None = None
    restarts: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        check_count(self.max_outer_iters, "max_outer_iters", 1)
        check_count(self.restarts, "restarts", 0)
        check_count(self.rng_seed, "rng_seed", 0)


def _cross(A: np.ndarray, B: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A M B^T + A^T M B, self-adjoint; -2 _cross(A, B, C) is the gradient
    of -2 <C, A C B^T> at C."""
    return A @ M @ B.T + A.T @ M @ B


def _objective(X: MeasureNetwork, Y: MeasureNetwork,
               C: np.ndarray) -> tuple[float, float]:
    """Squared distortion of a coupling of (mu_X, mu_Y), and the constant
    <p, X.^2 p> + <q, Y.^2 q> it is computed from."""
    A, B, p, q = X.omega, Y.omega, X.mu, Y.mu
    const = float(p @ (A**2) @ p + q @ (B**2) @ q)
    return const - 2.0 * float(np.sum(C * (A @ C @ B.T))), const


def _distortion(dis2: float, const: float) -> float:
    """Distortion from a squared distortion computed with the constant
    const. A radicand within 1e-12 max(1, const) below zero is clamped
    (seen when the two quadratic terms cancel at scale); anything more
    negative raises GwnetError."""
    if dis2 < 0:
        if dis2 < -1e-12 * max(1.0, const):
            raise GwnetError(f"squared distortion {dis2} < 0")
        dis2 = 0.0
    return float(np.sqrt(dis2))


def distortion_matrix(X: MeasureNetwork, Y: MeasureNetwork, C) -> float:
    """Distortion of C, a Coupling or a matrix checked to couple the
    measures p, q of X and Y: the square root of
    <p, X.^2 p> + <q, Y.^2 q> - 2 <C, X C Y^T>; a negative radicand is
    clamped or raises as in _distortion."""
    C = _coupling_of(C, X.mu, Y.mu).matrix
    return _distortion(*_objective(X, Y, C))


def random_vertex(p: np.ndarray, q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random vertex of the coupling polytope of (p, q), read-only: the
    exact transport optimum of a cost drawn uniformly from [0, 1) by rng,
    so a scaled permutation on the assignment path and at most n + m - 1
    entries from the simplex."""
    cost = rng.random((np.size(p), np.size(q)))
    return solve_linear_ot(OtProblem(cost, p, q)).matrix


def _initial_couplings(X, Y, params: GwParams) -> list[np.ndarray]:
    p, q = X.mu, Y.mu
    if params.given is not None:
        return [_coupling_of(params.given, p, q).matrix]
    starts = [np.outer(p, q)]
    if params.restarts:
        rng = np.random.default_rng(params.rng_seed)
        starts += [random_vertex(p, q, rng) for _ in range(params.restarts)]
    return starts


def _line_step(a: float, b: float) -> float:
    """Minimizer over [0,1] of t -> a t^2 + b t. When a <= 0 the minimum
    is at an end; on a tie, as on a flat segment, it is the vertex end."""
    if a > 0:
        return min(1.0, max(0.0, -b / (2.0 * a)))
    return 1.0 if a + b <= 0 else 0.0


def solve_gw(X: MeasureNetwork, Y: MeasureNetwork,
             params: GwParams | None = None) -> tuple[Coupling, SolveReport]:
    """Locally optimal coupling between X and Y by Frank-Wolfe.

    Each outer iteration solves the exact linear transport problem with the
    current gradient as cost, then minimizes the objective on the segment
    toward the returned vertex. A solve stops when the LP returns the
    current coupling or a step stops lowering the objective; a flat segment
    is stepped to its end, so a solve that meets one ends on a vertex. No
    step raises the objective; the reported distance is an upper bound on
    the true one, tight when a global minimizer is found. A solve from
    params.given runs it alone; one without it starts from the product
    coupling and params.restarts seeded random vertices, and the best
    final objective wins. A final squared distortion below zero beyond
    rounding raises GwnetError, as in distortion_matrix.
    """
    params = params or GwParams()
    A, B = X.omega, Y.omega
    p, q = X.mu, Y.mu
    assignment = _is_assignment(p, q)

    best = None
    for C in _initial_couplings(X, Y, params):
        J = _objective(X, Y, C)[0]
        G = -2.0 * _cross(A, B, C)     # without the marginal terms
        converged, steps = False, 0
        basis = []      # each step starts from the previous step's tree
        for _ in range(params.max_outer_iters):
            V = solve_linear_ot(OtProblem._step(G, p, q, assignment), basis)
            D = V.matrix - C
            if not D.any():     # C is the vertex the LP returns
                converged = True
                break
            G_D = -2.0 * _cross(A, B, D)
            # J(C + t D) = J + b t + a t^2 and G(C + t D) = G + t G_D
            b = float((G * D).sum())
            a = 0.5 * float((G_D * D).sum())
            t = _line_step(a, b)
            if t <= 0.0:
                converged = True
                break
            C = C + t * D
            G = G + t * G_D
            decrease = -t * (b + a * t)
            J -= decrease
            steps += 1
            if decrease <= OBJECTIVE_TOL * max(abs(J), 1e-16):
                converged = True
                break
        # the updates above carry rounding; the reported value is exact
        J, const = _objective(X, Y, C)
        if best is None or J < best[1]:
            best = (C, J, const, steps, converged)

    C, J, const, steps, converged = best
    C = np.maximum(C, 0.0)
    dis = _distortion(J, const)
    report = SolveReport(cost=dis, gw_distance=dis / 2.0, iterations=steps,
                         converged=converged)
    return Coupling._adopt(C, p, q), report


def gw_distance(X: MeasureNetwork, Y: MeasureNetwork,
                params: GwParams | None = None) -> float:
    """Convenience wrapper returning only the distance estimate."""
    _, report = solve_gw(X, Y, params)
    return report.gw_distance
