"""Polyhedra in H-representation with the exact desk-scale machinery the
variational calculus needs: tangent cones, vertex and extreme-ray enumeration,
polar conversions between H- and V-representations, Euclidean projections,
and a deterministic vertex-enumeration LP.

One least-distance kernel, Lawson & Hanson's NNLS (1974, ch. 23), finds the
point of P nearest to u: it gives ``project``, ``min_norm_point`` and
``is_empty``, and the start of the vertex walk.  From there a breadth-first
walk over single-row swaps visits every feasible basis (adjacency enumeration
in the sense of Avis & Fukuda 1992), so the work grows with the number of
feasible bases, not of row subsets.  A cone whose rows are independent needs
no walk: its extreme rays lie on its bases of all rows but one.  Each basis is
solved and accepted exactly as an enumeration of all row subsets would, and
results are sorted, so ties break identically on every run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from ..errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyPolyhedron,
    PointNotInSet,
    Unbounded,
)

MAX_DIM = 8
DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9
ACT_TOL = 1e-9
RANK_TOL = 1e-9
_PIVOT_TOL = 1e-12  # smallest pivot the walk divides by; smallest dual entering NNLS
_PRED_TOL = 1e-6  # slack on predicted swaps; every candidate is solved exactly


def _as_rows(M, dim: int) -> np.ndarray:
    if M is None:
        return np.zeros((0, dim))
    M = np.array(M, dtype=float)  # copy: rows are frozen after construction
    if M.size == 0:
        return np.zeros((0, dim))
    M = np.atleast_2d(M)
    if M.shape[1] != dim:
        raise DimensionMismatch(f"constraint rows must have {dim} columns")
    return M


def _as_vec(v, rows: int) -> np.ndarray:
    if v is None:
        return np.zeros(rows)
    v = np.atleast_1d(np.array(v, dtype=float))
    if v.shape != (rows,):
        raise DimensionMismatch("right-hand side length mismatch")
    return v


@dataclass(frozen=True)
class Polyhedron:
    """The set {x : G x <= h, E x = d} in R^dim."""

    dim: int
    G: np.ndarray
    h: np.ndarray
    E: np.ndarray
    d: np.ndarray

    @staticmethod
    def make(dim: int, G=None, h=None, E=None, d=None) -> "Polyhedron":
        G = _as_rows(G, dim)
        E = _as_rows(E, dim)
        h = _as_vec(h, G.shape[0])
        d = _as_vec(d, E.shape[0])
        for arr in (G, h, E, d):
            arr.flags.writeable = False
        return Polyhedron(dim, G, h, E, d)

    @cached_property
    def g_scales(self) -> np.ndarray:
        return _row_scales(self.G)

    @cached_property
    def e_scales(self) -> np.ndarray:
        return _row_scales(self.E)

    @property
    def n_ineq(self) -> int:
        return self.G.shape[0]

    @property
    def n_eq(self) -> int:
        return self.E.shape[0]

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, ineq={self.n_ineq}, eq={self.n_eq})"


class PolyCone(Polyhedron):
    """A polyhedron with zero right-hand sides: closed under nonnegative scaling."""

    @staticmethod
    def make_cone(dim: int, G=None, E=None) -> "PolyCone":
        P = Polyhedron.make(dim, G, None, E, None)
        return PolyCone(dim, P.G, P.h, P.E, P.d)


def box(dim: int, half_width: float, center=None) -> Polyhedron:
    """The axis-aligned box |x - center|_inf <= half_width."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    G = np.vstack([np.eye(dim), -np.eye(dim)])
    h = np.concatenate([c + half_width, half_width - c])
    return Polyhedron.make(dim, G, h)


def intersect(*polys: Polyhedron) -> Polyhedron:
    dim = polys[0].dim
    if any(p.dim != dim for p in polys):
        raise DimensionMismatch("cannot intersect polyhedra of different dimensions")
    return Polyhedron.make(
        dim,
        np.vstack([p.G for p in polys]),
        np.concatenate([p.h for p in polys]),
        np.vstack([p.E for p in polys]),
        np.concatenate([p.d for p in polys]),
    )


def _row_scales(M: np.ndarray) -> np.ndarray:
    if M.shape[0] == 0:
        return np.zeros(0)
    return np.maximum(np.linalg.norm(M, axis=1), 1e-300)


def residuals(P: Polyhedron, x):
    """Largest row-normalized constraint violation (a distance proxy) at a
    point, or at each row of an (N, dim) stack.  Every row product is one
    dot product, so each row is bit for bit its point's value."""
    rows = np.asarray(x, dtype=float)[..., None, :]
    worst = np.zeros(rows.shape[:-2])
    if P.n_ineq:
        worst = np.maximum(worst, np.max((np.vecdot(rows, P.G) - P.h) / P.g_scales, axis=-1))
    if P.n_eq:
        worst = np.maximum(worst, np.max(np.abs(np.vecdot(rows, P.E) - P.d) / P.e_scales, axis=-1))
    return float(worst) if rows.ndim == 2 else worst


def contains(P: Polyhedron, x, tol: float = FEAS_TOL) -> bool:
    return residuals(P, x) <= tol


def _rank_of(s: np.ndarray) -> int:
    """The numerical rank of a matrix with singular values s, descending."""
    return int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))


def _rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    return _rank_of(np.linalg.svd(M, compute_uv=False))


def _nullspace(M: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of {x : M x = 0}; the rank of M is dim
    minus the number of columns."""
    if M.size == 0:
        return np.eye(dim)
    _, s, Vt = np.linalg.svd(M)
    return Vt[_rank_of(s):].T


def _nullspace_line(M: np.ndarray, dim: int) -> np.ndarray | None:
    """The unit vector spanning {x : M x = 0} when that space is a line (M
    has rank dim - 1), else None; one SVD decides both."""
    N = _nullspace(M, dim)
    return N[:, 0] if N.shape[1] == 1 else None


def dedupe(points, tol: float) -> list[np.ndarray]:
    """The points in order, without those within tol (max norm) of an
    earlier kept one; each is compared with all kept points at once."""
    points = list(points)
    if not points:
        return []
    P = np.asarray(points, dtype=float)
    keep = np.zeros(len(points), dtype=bool)
    for i in range(len(points)):
        keep[i] = np.all(np.max(np.abs(P[keep] - P[i]), axis=1) > tol)
    return [p for p, k in zip(points, keep) if k]


def _dedupe_sorted(points: list[np.ndarray], tol: float = DEDUP_TOL) -> list[np.ndarray]:
    return dedupe(sorted(points, key=lambda v: tuple(v)), tol)


def _basic_solution(P: Polyhedron, S: tuple) -> np.ndarray | None:
    """The point where the equality rows and the inequality rows S hold with
    equality, or None when those rows are rank deficient or inconsistent."""
    M = np.vstack([P.E, P.G[list(S)]])
    b = np.concatenate([P.d, P.h[list(S)]])
    x, _, _, s = np.linalg.lstsq(M, b, rcond=None)
    if _rank_of(s) < P.dim or np.max(np.abs(M @ x - b)) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
        return None
    return x


def _feasible_basis(P: Polyhedron, x: np.ndarray, need: int) -> tuple:
    """Rows of a feasible basis of the pointed polyhedron P, sorted, reached
    from its point x by moving inside the tight rows until `need` independent
    inequality rows are tight.  Each move lies in the nullspace of the rows
    kept so far, so a tested row keeps its status and only rows that became
    tight are tested."""
    rows, tested, M, rank = [], set(), P.E, _rank(P.E)
    while True:
        slack = (P.h - P.G @ x) / P.g_scales
        tol = FEAS_TOL * (1.0 + float(np.abs(x).max(initial=0.0)))
        for j in np.nonzero(slack <= tol)[0].tolist():
            if j in tested:
                continue
            tested.add(j)
            grown = np.vstack([M, P.G[j]])
            if _rank(grown) > rank:
                rows.append(j)
                M, rank = grown, rank + 1
            if len(rows) == need:
                return tuple(sorted(rows))
        d = _nullspace(M, P.dim)[:, 0]
        a = (P.G @ d) / P.g_scales
        if not np.any(a > _PIVOT_TOL):
            d, a = -d, -a
        block = a > _PIVOT_TOL
        x = x + float(np.min(np.maximum(slack[block], 0.0) / a[block])) * d


def _neighbours(P: Polyhedron, S: tuple, x: np.ndarray, bounded: bool) -> list[tuple]:
    """Bases one swap away from the basis S with point x whose point is
    feasible up to _PRED_TOL: along each edge direction, the rows that tie in
    the ratio test and, at a degenerate vertex, every other tight row.  The
    ties follow every edge of P, and swaps among tight rows connect all bases
    of one vertex (basis exchange), so a walk over these reaches every
    feasible basis.

    Every (edge k, nonbasic row j) pair is tested in one pass, elementwise as
    a per-edge loop would, and the swaps come out edge by edge, rows
    ascending."""
    M = np.vstack([P.E, P.G[list(S)]])
    square = M.shape[0] == M.shape[1]  # taller only with redundant equality rows
    D = -(np.linalg.inv(M) if square else np.linalg.pinv(M))[:, P.n_eq :]  # column k leaves row S[k]
    W = P.G @ D
    edges = np.ascontiguousarray(D.T)  # row k is edge k, each norm one dot product
    if bounded and not np.all(np.any(W > FEAS_TOL * np.sqrt(np.vecdot(edges, edges)), axis=0)):
        raise Unbounded("polyhedron has a nontrivial recession cone")
    resid = P.G @ x - P.h
    row_tol = _PRED_TOL * np.maximum(1.0, P.g_scales)
    nonbasic = np.delete(np.arange(P.n_ineq), S)
    pivots = np.abs(W[nonbasic].T) > _PIVOT_TOL * P.g_scales[nonbasic]
    ks, at = np.nonzero(pivots)  # k-major, rows ascending
    js = nonbasic[at]
    a = W[:, ks].T  # row p is the column of W along pair p's edge
    t = -resid[js] / W[js, ks]
    viol = resid + t[:, None] * a
    size = 1.0 + np.abs(x + t[:, None] * edges[ks]).max(axis=1)
    ok = np.all(viol <= row_tol * size[:, None], axis=1)
    return [tuple(sorted(S[:k] + S[k + 1 :] + (j,))) for k, j in zip(ks[ok].tolist(), js[ok].tolist())]


def _walk(P: Polyhedron, start: tuple, solve, bounded: bool) -> list[tuple]:
    """Breadth-first walk over the feasible bases of the pointed polyhedron P.

    A basis is a sorted tuple of inequality rows that, with the equality
    rows, pin one point.  ``solve(S)`` returns the point of basis S (None if
    S is singular) and whether S is accepted; accepted bases are expanded by
    single-row swaps.  With ``bounded``, an edge that no row blocks raises
    Unbounded.  Returns the accepted bases in lexicographic order, so callers
    see them in the order an enumeration of all row subsets would.
    """
    seen = {start: solve(start)}
    queue = deque([start])
    while queue:
        S = queue.popleft()
        x, _ = seen[S]
        if x is None:
            continue
        for T in _neighbours(P, S, x, bounded):
            if T not in seen:
                seen[T] = solve(T)
                if seen[T][1]:
                    queue.append(T)
    return sorted(S for S, (_, ok) in seen.items() if ok)


def _ray_slice(G: np.ndarray, eqs: np.ndarray) -> Polyhedron:
    """K ∩ {c x = 1} for the pointed cone K = {G x <= 0, eqs x = 0} and
    c = -sum_i G_i / |G_i|: c is positive on K minus the origin, so the slice is a
    polytope whose vertices are the extreme rays of K, and it is empty iff
    K = {0}."""
    c = -(G / _row_scales(G)[:, None]).sum(axis=0)
    dim = G.shape[1]
    return Polyhedron.make(
        dim, G, np.zeros(G.shape[0]), np.vstack([eqs, c]), np.append(np.zeros(eqs.shape[0]), 1.0)
    )


def vertices(P: Polyhedron) -> list[np.ndarray]:
    """All vertices of a bounded polyhedron, deduplicated and in lexicographic
    order.  Every vertex is the unique solution of the equality rows plus
    dim - rank(E) active inequality rows (a basis); the feasible bases are
    found by a walk from a basis at the minimum-norm point, and each is
    solved exactly as an enumeration of all row subsets would solve it."""
    if P.dim > MAX_DIM:
        raise DimensionTooLarge(f"vertex enumeration supports dim <= {MAX_DIM}")
    need = P.dim - _rank(P.E)
    if need and _rank(np.vstack([P.G, P.E])) < P.dim:
        raise Unbounded("polyhedron has a nontrivial recession cone")  # a lineality space
    points: dict[tuple, np.ndarray | None] = {}

    def solve(S):
        x = points[S] = _basic_solution(P, S)
        if x is None:
            return None, False
        return x, contains(P, x, FEAS_TOL * (1.0 + float(np.abs(x).max(initial=0.0))))

    if need == 0:
        bases = [()] if solve(())[1] else []
    else:
        x0 = min_norm_point(P)
        if x0 is None:
            if not is_empty(_ray_slice(P.G, P.E)):
                raise Unbounded("polyhedron has a nontrivial recession cone")
            return []
        bases = _walk(P, _feasible_basis(P, x0, need), solve, bounded=True)
    return _dedupe_sorted([points[S] for S in bases])


def cone_generators(K: Polyhedron) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Extreme rays and a lineality basis of the cone {G x <= 0, E x = 0}.

    Rays are unit vectors, deduplicated and lexicographically sorted; together
    with the lineality columns they positively span the cone.  An extreme ray
    of the pointed part is the 1-dimensional nullspace of dim-1 independent
    active rows (equalities, the lineality complement, and a subset of G rows).
    When the rows of G and E are independent, the pointed part is simplicial
    and those subsets are the G rows but one (Rockafellar 1970, sec. 19), all
    solved in lexicographic order; otherwise they are the feasible bases of a
    polytope slice of the pointed part, found by a walk.
    """
    if K.dim > MAX_DIM:
        raise DimensionTooLarge(f"ray enumeration supports dim <= {MAX_DIM}")
    stacked = np.vstack([K.G, K.E])
    L = _nullspace(stacked, K.dim)  # lineality space
    lines = [L[:, j] for j in range(L.shape[1])]
    eqs = np.vstack([K.E, L.T])  # restrict to the pointed part K ∩ L^perp
    simplicial = K.dim - L.shape[1] == stacked.shape[0]  # [G; E] has full row rank
    need = K.n_ineq - 1 if simplicial else K.dim - 1 - _rank(eqs)
    if need < 0:
        return [], lines
    Q = None if simplicial or need == 0 else _ray_slice(K.G, eqs)
    found: dict[tuple, list[np.ndarray]] = {}

    def solve(S):
        u = _nullspace_line(np.vstack([eqs, K.G[list(S)]]), K.dim)
        found[S] = []
        if u is None:
            return None, False
        for cand in (u, -u):
            if K.n_ineq == 0 or np.max(K.G @ cand) <= FEAS_TOL:
                found[S].append(cand / np.linalg.norm(cand))
        scale = 0.0 if Q is None else float(Q.E[-1] @ u)
        return (u / scale if scale != 0.0 else None), bool(found[S])

    if Q is None:
        bases = [S for S in combinations(range(K.n_ineq), need) if solve(S)[1]]
    else:
        x0 = min_norm_point(Q)
        if x0 is None:
            return [], lines
        bases = _walk(Q, _feasible_basis(Q, x0, need), solve, bounded=False)
    rays = [r for S in bases for r in found[S]]
    return _dedupe_sorted(rays, tol=1e-8), lines


def cone_face_spans(K: Polyhedron, rays) -> list[np.ndarray]:
    """Orthonormal bases (columns) of the spans of the nonzero faces of the
    cone K = {G x <= 0, E x = 0}, one per face, from its extreme rays as
    ``cone_generators`` gives them.

    A face is known by its active rows A, the G rows that vanish on every
    ray it holds; its span is {x : E x = 0, G_A x = 0}.  The walk starts at
    K itself and goes down one row at a time, each new row set closed over
    the rays left (a row that vanishes on all of them is active too), so
    every face is visited once and in a fixed order.  The lineality space is
    the face of all rows; K = {0} has no nonzero face."""
    if K.dim > MAX_DIM:
        raise DimensionTooLarge(f"face enumeration supports dim <= {MAX_DIM}")
    R = np.reshape(rays, (len(rays), K.dim))
    tight = np.abs(K.G @ R.T) <= ACT_TOL * K.g_scales[:, None]  # rows x rays

    def active(held):
        return tight[:, held].all(axis=1)

    top = active(np.ones(len(R), dtype=bool))
    seen, queue, spans = {top.tobytes()}, deque([top]), []
    while queue:
        A = queue.popleft()
        N = _nullspace(np.vstack([K.E, K.G[A]]), K.dim)
        if N.shape[1]:
            spans.append(N)
        held = tight[A].all(axis=0)
        for j in np.flatnonzero(~A):
            B = active(held & tight[j])
            if B.tobytes() not in seen:
                seen.add(B.tobytes())
                queue.append(B)
    return spans


def vrep_to_hrep(points, rays=(), lines=()) -> Polyhedron:
    """H-representation of conv(points) + cone(rays) + span(lines).

    Works through the homogenization cone: the facets of P are the extreme rays
    of the polar of cone({(p,1)} ∪ {(r,0)} ∪ {±(l,0)}), which is itself an
    H-represented cone, so one ray enumeration finishes the job.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        raise EmptyPolyhedron("vrep_to_hrep needs at least one point")
    dim = points[0].shape[0]
    rows_ineq = [np.append(p, 1.0) for p in points]
    rows_ineq += [np.append(np.asarray(r, dtype=float), 0.0) for r in rays]
    rows_eq = [np.append(np.asarray(l, dtype=float), 0.0) for l in lines]
    polar = PolyCone.make_cone(
        dim + 1,
        G=np.vstack(rows_ineq),
        E=np.vstack(rows_eq) if rows_eq else None,
    )
    gen_rays, gen_lines = cone_generators(polar)
    G_rows, h_vals, E_rows, d_vals = [], [], [], []
    for a in gen_rays:
        if np.linalg.norm(a[:dim]) <= 1e-12:
            continue  # the trivial polar ray (0, -1)
        G_rows.append(a[:dim])
        h_vals.append(-a[dim])
    for a in gen_lines:
        if np.linalg.norm(a[:dim]) <= 1e-12:
            continue
        E_rows.append(a[:dim])
        d_vals.append(-a[dim])
    return Polyhedron.make(
        dim,
        np.vstack(G_rows) if G_rows else None,
        np.array(h_vals) if G_rows else None,
        np.vstack(E_rows) if E_rows else None,
        np.array(d_vals) if E_rows else None,
    )


def pullback_lp_min(c, T: Polyhedron, J, H, v) -> float | None:
    """min <c, z> over the z with J z + H in T, or None when there is no such
    z: the vertex LP on that polyhedron cut by a box, which starts at
    16 (1 + |H| + |v|) and grows (at most four times) until the value
    settles."""
    P = Polyhedron.make(J.shape[1], T.G @ J, T.h - T.G @ H, T.E @ J, T.d - T.E @ H)
    width = 16.0 * (1.0 + float(np.linalg.norm(H)) + float(np.linalg.norm(v)))
    prev = None
    for _ in range(4):
        try:
            val, _ = lp_max(-c, intersect(P, box(P.dim, width)))
        except EmptyPolyhedron:
            return None
        val = -val
        if prev is not None and abs(val - prev) <= 1e-9 * (1.0 + abs(val)):
            break
        prev = val
        width *= 4.0
    return val


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x < y - DEDUP_TOL:
            return True
        if x > y + DEDUP_TOL:
            return False
    return False


def max_vertex(c, verts) -> tuple[float, np.ndarray]:
    """The maximum of <c, y> over the vertex list of a polytope, with the
    lexicographically smallest vertex within 1e-9 (relative) of it, so ties
    break identically on every run."""
    if not verts:
        raise EmptyPolyhedron("LP over an infeasible polyhedron")
    c = np.asarray(c, dtype=float)
    values = [float(c @ v) for v in verts]
    best = max(values)
    tol = 1e-9 * (1.0 + abs(best))
    optimal = [v for v, val in zip(verts, values) if val >= best - tol]
    arg = optimal[0]
    for v in optimal[1:]:
        if _lex_less(v, arg):
            arg = v
    return best, arg


def lp_max(c, P: Polyhedron) -> tuple[float, np.ndarray]:
    """Maximize <c, y> over a nonempty bounded polyhedron: its best vertex."""
    return max_vertex(c, vertices(P))  # raises Unbounded on nontrivial recession cone


def tangent_cone(P: Polyhedron, x) -> PolyCone:
    """The cone {w : G_act w <= 0, E w = 0} of constraints active at x.

    Redundant active rows are kept: the H-representation may be non-minimal,
    and comparisons downstream are by membership, not by representation.
    """
    x = np.asarray(x, dtype=float)
    if residuals(P, x) > ACT_TOL:
        raise PointNotInSet("point is farther than ACT_TOL from the polyhedron")
    if P.n_ineq:
        slack = (P.G @ x - P.h) / _row_scales(P.G)
        active = P.G[slack >= -ACT_TOL]
    else:
        active = np.zeros((0, P.dim))
    return PolyCone.make_cone(P.dim, active, P.E)


def normal_cone_hrep(polys, z) -> PolyCone:
    """H-representation of the normal cone at z to the union of the
    polyhedra polys, all containing z: the polar of each tangent cone, cut
    out by its generators, and intersected over the polyhedra (the normal
    cone of a convex union is the intersection of the pieces' ones)."""
    rows_G, rows_E = [], []
    for C in polys:
        t_rays, t_lines = cone_generators(tangent_cone(C, z))
        rows_G.extend(t_rays)
        rows_E.extend(t_lines)
    return PolyCone.make_cone(
        polys[0].dim,
        np.vstack(rows_G) if rows_G else None,
        np.vstack(rows_E) if rows_E else None,
    )


def kernel_meets_cone(K: Polyhedron, A) -> bool:
    """Whether some nonzero y of the cone K = {G y <= 0, E y = 0} has A y = 0."""
    probe = PolyCone.make_cone(K.dim, K.G if K.n_ineq else None, np.vstack([K.E, A]))
    rays, lines = cone_generators(probe)
    return bool(rays or lines)


def _nnls(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The lam >= 0 minimizing |A lam - f| by the active-set algorithm of
    Lawson & Hanson (1974, ch. 23): it stops when no free column has a
    positive dual A^T (f - A lam), which certifies optimality, or before a
    pass that raises the residual or returns to a passive set.  A tie is
    kept (a gain may lie below the rounding of |r|^2), and as no passive set
    recurs, it ends within 2^n passes for n columns."""

    def solve(cols):
        out = np.zeros(A.shape[1])
        out[cols] = np.linalg.lstsq(A[:, cols], f, rcond=None)[0]
        return out

    lam = np.zeros(A.shape[1])
    passive = np.zeros(A.shape[1], dtype=bool)
    resid, seen = float(f @ f), {passive.tobytes()}
    while True:
        dual = A.T @ (f - A @ lam)
        dual[passive] = 0.0
        j = int(np.argmax(dual))
        if dual[j] <= _PIVOT_TOL:
            return lam
        trial, x = passive.copy(), lam.copy()
        trial[j] = True
        s = solve(trial)
        if s[j] <= 0.0:
            return lam  # rounding: the entering column does not enter
        while np.any(s[trial] <= 0.0):  # step back to the first coefficient that hits 0
            neg = np.flatnonzero(trial & (s <= 0.0))
            ratios = x[neg] / (x[neg] - s[neg])
            x += ratios.min() * (s - x)
            x[neg[np.argmin(ratios)]] = 0.0
            trial &= x > 0.0
            s = solve(trial)
        r = f - A @ s
        if float(r @ r) > resid or trial.tobytes() in seen:
            return lam
        lam, passive, resid = s, trial, float(r @ r)
        seen.add(trial.tobytes())


def _slice_point(P: Polyhedron, u: np.ndarray, S) -> np.ndarray:
    """The projection of u onto {E y = d, G_S y = h_S}."""
    M = np.vstack([P.E, P.G[list(S)]])
    if M.shape[0] == 0:
        return u
    b = np.concatenate([P.d, P.h[list(S)]])
    lam = np.linalg.pinv(M @ M.T) @ (b - M @ u)
    return u + M.T @ lam


def project(P: Polyhedron, u) -> np.ndarray | None:
    """Exact Euclidean projection of u onto P, or None if P is empty.

    One least-distance program (Lawson & Hanson 1974, ch. 23).  With y0 the
    projection of u onto the equality rows, N an orthonormal basis of their
    nullspace and b the row-normalized violations at y0 over the largest, c,
    the answer is y0 + c N z for the least z with -G N z >= b.  NNLS on
    [-(G N)^T; b^T] against e_last gives z = -r[:-1] / r[-1] from its
    residual r, and r = 0 means P is empty.  The point is then solved on the
    slice of the rows with a positive multiplier, as an active-set
    enumeration solves it, and kept when feasible up to FEAS_TOL at the size
    of u and the right-hand sides; violations within that count as none.
    """
    u = np.asarray(u, dtype=float)
    scales = np.concatenate([P.g_scales, P.e_scales])
    scales[scales <= RANK_TOL] = 1.0  # a zero row stays as it is: 0 <= h or 0 = d
    rhs = np.concatenate([P.h, P.d]) / scales
    tol = FEAS_TOL * (1.0 + max(np.abs(u).max(initial=0.0), np.abs(rhs).max(initial=0.0)))
    y0 = _slice_point(P, u, ())
    viol = np.vstack([P.G, P.E]) @ y0 / scales - rhs
    if np.any(np.abs(viol[P.n_ineq :]) > tol):
        return None  # the equality rows disagree
    b = np.where(viol > tol, viol, np.minimum(viol, 0.0))[: P.n_ineq]
    if not np.any(b > 0.0):
        return y0
    c, N = float(b.max()), _nullspace(P.E, P.dim)
    A = np.vstack([-(P.G @ N / scales[: P.n_ineq, None]).T, b / c])
    e = np.eye(A.shape[0])[-1]
    lam = _nnls(A, e)
    r = A @ lam - e
    candidates = [_slice_point(P, u, np.flatnonzero(lam > 0.0))]
    if r[-1] < 0.0:
        candidates.append(y0 - c * N @ (r[:-1] / r[-1]))
    for y in candidates:
        if residuals(P, y) <= tol:
            return y
    return None  # r[-1] is zero up to rounding: P is empty


def min_norm_point(P: Polyhedron) -> np.ndarray | None:
    return project(P, np.zeros(P.dim))


def is_empty(P: Polyhedron) -> bool:
    return min_norm_point(P) is None
