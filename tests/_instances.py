"""Shared desk-scale problem instances and sampled-function builders."""

import math

import numpy as np

from epidiff.core import CompositeProblem, PolyMap, jacobian, poly_eval
from epidiff.errors import PointNotInDomain
from epidiff.numkit import Polyhedron, svec
from epidiff.numkit import sym
from epidiff.numkit.sym import SymMatrix
from epidiff.oracle import SampledFunction
from epidiff.outer import (
    NegSemidefIndicator,
    PlqFunction,
    PlqPiece,
    absolute_value,
    nonpositive_orthant,
    zero_function,
    zero_set,
)


def a1_problem():
    """dom {x2 <= x1^2} with the multiplier pinned at 1."""
    phi = PolyMap.from_strings([["x2"]], 2)
    F = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    return CompositeProblem(phi, F, nonpositive_orthant(1))


def abs_shift_problem():
    """|x - 1| with a linear objective tilting the multiplier to 1."""
    phi = PolyMap.from_strings([["-1 x1"]], 1)
    F = PolyMap.from_strings([["x1", "-1"]], 1)
    return CompositeProblem(phi, F, absolute_value())


def parabola_min_problem():
    """min x2 subject to x2 >= x1^2."""
    phi = PolyMap.from_strings([["x2"]], 2)
    F = PolyMap.from_strings([["x1^2", "-1 x2"]], 2)
    return CompositeProblem(phi, F, nonpositive_orthant(1))


def quartic_problem():
    """min x1^4, unconstrained through a zero outer function."""
    phi = PolyMap.from_strings([["x1^4"]], 1)
    return CompositeProblem(phi, PolyMap.identity(1), zero_function(1))


def mscq_fail_problem():
    """F(x) = x^2 into the nonpositive axis: dom f = {0}."""
    return CompositeProblem(PolyMap.zero(1), PolyMap.from_strings([["x1^2"]], 1), nonpositive_orthant(1))


def psd_problem():
    """Identity map into vectorized S^2 with the negative semidefinite cone."""
    phi = PolyMap.zero(3)
    F = PolyMap.identity(3)
    return CompositeProblem(phi, F, NegSemidefIndicator(2))


def psd_base_data():
    A = np.diag([0.0, -1.0])
    V = np.diag([1.0, 0.0])
    return svec(A), svec(V)


def two_multiplier_problem():
    """F(x) = (x, x) into the nonpositive orthant: a segment of multipliers."""
    phi = PolyMap.zero(1)
    F = PolyMap.from_strings([["x1"], ["x1"]], 1)
    return CompositeProblem(phi, F, nonpositive_orthant(2))


def half_square_plq():
    """g(y) = (max(y, 0))^2 / 2 as a two-piece PLQ on the line."""
    left = PlqPiece(Polyhedron.make(1, G=[[1.0]], h=[0.0]), np.zeros((1, 1)), np.zeros(1), 0.0)
    right = PlqPiece(Polyhedron.make(1, G=[[-1.0]], h=[0.0]), np.array([[1.0]]), np.zeros(1), 0.0)
    return PlqFunction([left, right])


def eq_constrained_problem():
    """min x2 + x1^2 subject to x2 = 0."""
    phi = PolyMap.from_strings([["x2", "x1^2"]], 2)
    F = PolyMap.from_strings([["x2"]], 2)
    return CompositeProblem(phi, F, zero_set(1))


def max_of_coordinates_plq():
    """g(y) = max(y1, y2, 0) as a three-piece PLQ on the plane."""
    zero2 = np.zeros((2, 2))
    first = PlqPiece(
        Polyhedron.make(2, G=[[-1.0, 1.0], [-1.0, 0.0]], h=[0.0, 0.0]),
        zero2,
        np.array([1.0, 0.0]),
        0.0,
    )
    second = PlqPiece(
        Polyhedron.make(2, G=[[1.0, -1.0], [0.0, -1.0]], h=[0.0, 0.0]),
        zero2,
        np.array([0.0, 1.0]),
        0.0,
    )
    neither = PlqPiece(
        Polyhedron.make(2, G=[[1.0, 0.0], [0.0, 1.0]], h=[0.0, 0.0]),
        zero2,
        np.zeros(2),
        0.0,
    )
    return PlqFunction([first, second, neither])


def outer_sampled(g) -> SampledFunction:
    """A catalog member as an oracle evaluator on its own ambient space."""
    return SampledFunction(
        evaluator=g.value_batch,
        dim=g.ambient_dim,
        description=f"{g.tag} evaluator",
        restore_feasible=g.domain_project,
    )


def example35_function() -> SampledFunction:
    """|x2 - |x1|^(4/3)| - x1^2: finite second subderivative along the first
    axis but empty parabolic-subderivative domain there."""

    def ev(X):
        return np.abs(X[:, 1] - np.abs(X[:, 0]) ** (4.0 / 3.0)) - X[:, 0] ** 2

    return SampledFunction(ev, 2, "irregular benchmark")


def random_psd_instance(rng, n):
    """A negative semidefinite matrix with a simple zero eigenvalue, a normal
    cone element, and a unit critical direction; returns (A, V, W)."""
    M = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    negs = -rng.uniform(0.6, 2.0, size=n - 1)
    lams = np.concatenate([[0.0], negs])
    A = Q @ np.diag(lams) @ Q.T
    A = 0.5 * (A + A.T)
    q0 = Q[:, 0]
    V = rng.uniform(0.5, 1.5) * np.outer(q0, q0)
    W = rng.standard_normal((n, n))
    W = 0.5 * (W + W.T)
    W = W - np.outer(q0, q0) * float(q0 @ W @ q0)
    W /= np.linalg.norm(W)
    return A, 0.5 * (V + V.T), W


def random_simple_top_instance(rng, n):
    """A symmetric matrix with a simple, well-separated top eigenvalue; the
    unique subgradient of the maximum eigenvalue; and a unit direction."""
    M = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    lams = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
    lams[0] = lams[1] + rng.uniform(0.6, 1.5)
    A = Q @ np.diag(lams) @ Q.T
    A = 0.5 * (A + A.T)
    V = np.outer(Q[:, 0], Q[:, 0])
    W = rng.standard_normal((n, n))
    W = 0.5 * (W + W.T)
    W /= np.linalg.norm(W)
    return A, 0.5 * (V + V.T), W


def jacobi_one_matrix(A):
    """The per-matrix cyclic Jacobi loop that sym_eig ran before it took
    stacks, kept as the reference."""
    M = np.array(SymMatrix(A).entries)
    n = M.shape[0]
    Q = np.eye(n)
    if n == 1:
        return np.array([M[0, 0]]), Q
    scale = 1.0 + float(np.linalg.norm(M))
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(sym.MAX_SWEEPS):
        off = float(np.linalg.norm(M[off_mask]))
        if off <= sym.JACOBI_OFFDIAG_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = M[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (M[q, q] - M[p, p]) / (2.0 * apq)
                if abs(theta) >= 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * M[:, p] - s * M[:, q]
                rot_q = s * M[:, p] + c * M[:, q]
                M[:, p], M[:, q] = rot_p, rot_q
                rot_p = c * M[p, :] - s * M[q, :]
                rot_q = s * M[p, :] + c * M[q, :]
                M[p, :], M[q, :] = rot_p, rot_q
                M[p, q] = M[q, p] = 0.0
                rot_p = c * Q[:, p] - s * Q[:, q]
                rot_q = s * Q[:, p] + c * Q[:, q]
                Q[:, p], Q[:, q] = rot_p, rot_q
    lams = np.diag(M).copy()
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    Q = Q[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(Q[:, j])))
        if Q[k, j] < 0:
            Q[:, j] = -Q[:, j]
    return lams, Q


def old_restore(prob, x0, project, distance, max_iter=60):
    """The per-point Gauss-Newton loop that the stacked restoration replaced,
    kept as the reference; project and distance are the member's one-point
    projection and distance."""
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        u = poly_eval(prob.F, x)
        try:
            p = np.asarray(project(u), dtype=float)
        except PointNotInDomain:
            return None
        r = u - p
        if float(np.linalg.norm(r)) <= 1e-12 * (1.0 + float(np.linalg.norm(u))):
            return x
        J = jacobian(prob.F, x)
        JJt = J @ J.T
        try:
            lam = np.linalg.solve(JJt, p - u)
        except np.linalg.LinAlgError:
            lam = np.linalg.lstsq(JJt, p - u, rcond=None)[0]
        step = J.T @ lam
        if float(np.linalg.norm(step)) < 1e-15 or not np.all(np.isfinite(step)):
            break
        x = x + step
    u = poly_eval(prob.F, x)
    try:
        dist = distance(u)
    except PointNotInDomain:
        return None
    if dist <= 1e-9 * (1.0 + float(np.linalg.norm(u))):
        return x
    return None
