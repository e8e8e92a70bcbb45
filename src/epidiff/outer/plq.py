"""Convex piecewise linear-quadratic members of the catalog.

A piece is a polyhedron C_i carrying the quadratic 0.5 <A_i x, x> + <a_i, x>
+ alpha_i.  All second-order objects reduce to active-set algebra over the
pieces; the admissible piece is never unique, so a deterministic piece-index
tie-break fixes which equivalent representation is reported.  On the
critical cone the piece term <A_i u, u> of the chain rule's dual is the same
for every multiplier, so the dual is the best vertex of the multiplier
polytope plus that term, and solves no LP of its own.

The indicator of a polyhedron C is the member with the one zero piece on C
(Rockafellar & Wets 1998, ch. 10 and 13), so the same piece calculus gives
its subderivatives, second-order tangent sets, primal value and basic CQ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    PointNotInDomain,
    SubderivativeNotFinite,
    TangentPreconditionFailed,
    ValidationError,
)
from ..extreal import PLUS_INF, ExtReal
from ..numkit import (
    PolyCone,
    Polyhedron,
    cone_generators,
    intersect,
    project,
    row_norms,
    tangent_cone,
    vrep_to_hrep,
)
from ..numkit.polyhedra import (
    ACT_TOL,
    _row_scales,
    kernel_meets_cone,
    max_vertex,
    normal_cone_hrep,
    pullback_lp_min,
    residuals,
)
from .base import OuterFunction, each_row
from .reprs import PolyhedralConeRepr, PolyhedronRep

# Indicator feasibility must be decided much tighter than geometric activity:
# a boundary fuzz of size eps shifts second-order quotients by ~eps / t^2.
INDICATOR_FEAS_TOL = 1e-11


def second_order_tangent_cone(C: Polyhedron, z, w) -> PolyCone:
    """H-representation of the second-order tangent set to a polyhedron.

    Active rows with G_i w = 0 constrain u by G_i u <= 0; active rows with
    strict first-order descent G_i w < 0 leave u free; equality rows carry over.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    T = tangent_cone(C, z)
    if residuals(T, w) > ACT_TOL * (1.0 + float(np.linalg.norm(w))):
        raise TangentPreconditionFailed("direction is not tangent to the domain")
    rows = []
    if T.n_ineq:
        scales = _row_scales(T.G)
        lin = (T.G @ w) / scales
        wtol = ACT_TOL * (1.0 + float(np.linalg.norm(w)))
        for i in range(T.n_ineq):
            if abs(lin[i]) <= wtol:
                rows.append(T.G[i])
    return PolyCone.make_cone(C.dim, np.vstack(rows) if rows else None, C.E)


@dataclass(frozen=True)
class PlqPiece:
    domain: Polyhedron
    A: np.ndarray
    a: np.ndarray
    alpha: float

    def value(self, z: np.ndarray) -> float:
        return 0.5 * float(z @ self.A @ z) + float(self.a @ z) + self.alpha

    def grad(self, z: np.ndarray) -> np.ndarray:
        return self.A @ z + self.a


class PlqFunction(OuterFunction):
    tag = "plq"

    def __init__(self, pieces):
        if not pieces:
            raise ValidationError("a PLQ function needs at least one piece")
        dim = pieces[0].domain.dim
        for p in pieces:
            if p.domain.dim != dim or p.A.shape != (dim, dim) or p.a.shape != (dim,):
                raise ValidationError("PLQ piece data with inconsistent dimensions")
            if np.max(np.abs(p.A - p.A.T), initial=0.0) > 1e-9 * (1.0 + np.abs(p.A).max(initial=0.0)):
                raise ValidationError("PLQ piece matrix must be symmetric")
        self.pieces: list[PlqPiece] = list(pieces)
        self.ambient_dim = dim

    # -- piece bookkeeping --------------------------------------------------------

    def _active(self, z) -> list[int]:
        z = self._require_dim(z)
        tol = ACT_TOL * (1.0 + float(np.linalg.norm(z)))
        return [i for i, p in enumerate(self.pieces) if residuals(p.domain, z) <= tol]

    def _domain_normal_cone(self, z: np.ndarray, active: list[int]) -> PolyCone:
        """H-representation of the normal cone to dom g at z: the
        intersection of the active pieces' normal cones."""
        return normal_cone_hrep([self.pieces[i].domain for i in active], z)

    def _admissible(self, z: np.ndarray, w: np.ndarray) -> list[int]:
        """Active pieces whose tangent cone at z contains w."""
        wtol = ACT_TOL * (1.0 + float(np.linalg.norm(w)))
        out = []
        for i in self._active(z):
            T = tangent_cone(self.pieces[i].domain, z)
            if residuals(T, w) <= wtol:
                out.append(i)
        return out

    # -- catalog operations ----------------------------------------------------------

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        """The least value of the pieces holding each row, +inf where none
        does; every product is one dot product, so no row depends on another.

        A row that some piece holds exactly takes the least value over the
        pieces that hold it exactly; only the other rows (restored points a
        rounding error off the domain) take it over the pieces holding them
        within the tolerance.  So no piece is extrapolated past its boundary
        onto a point its neighbour holds."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        out = np.full(Z.shape[0], np.inf)
        # the value tolerance is much tighter than the activity tolerance:
        # extrapolating a piece by eps shifts second-order quotients by eps/t^2
        tol = INDICATOR_FEAS_TOL * (1.0 + row_norms(Z))
        res = np.array([residuals(p.domain, Z) for p in self.pieces])
        held = res <= 0.0
        held = np.where(held.any(axis=0), held, res <= tol)
        for p, mask in zip(self.pieces, held):
            if mask.any():
                X = Z[mask]
                vals = 0.5 * np.vecdot(X, np.vecdot(X[:, None, :], p.A)) + np.vecdot(X, p.a) + p.alpha
                # pieces agree on overlaps; min is the deterministic reporting rule
                out[mask] = np.minimum(out[mask], vals)
        return out

    def subdifferential(self, z):
        """conv of the active gradients plus the normal cone to the domain.

        The domain's normal cone is the intersection of the active pieces'
        normal cones, assembled in H-representation from each piece's tangent
        generators, then converted back to generators for the hull step."""
        z = np.asarray(z, dtype=float)
        active = self._active(z)
        if not active:
            raise PointNotInDomain("point outside dom g")
        points = [self.pieces[i].grad(z) for i in active]
        n_rays, n_lines = cone_generators(self._domain_normal_cone(z, active))
        hrep = vrep_to_hrep(points, n_rays, n_lines)
        return PolyhedronRep(polyhedron=hrep, points=points, rays=n_rays, lines=n_lines)

    def subderivative(self, z, w) -> ExtReal:
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        if not self._active(z):
            raise PointNotInDomain("point outside dom g")
        idx = self._admissible(z, w)
        if not idx:
            return PLUS_INF
        return ExtReal(min(float(self.pieces[i].grad(z) @ w) for i in idx))

    def second_subderivative(self, z, y, u) -> ExtReal:
        """<A_i u, u> over a piece whose tangent cone contains u with the
        residual multiplier y - grad_i(z) orthogonal to u; +inf otherwise."""
        self._require_subgradient(z, y)
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        utol = 1e-8 * (1.0 + float(np.linalg.norm(u)))
        for i in self._admissible(z, u):
            piece = self.pieces[i]
            resid = y - piece.grad(z)
            if abs(float(resid @ u)) <= utol * (1.0 + float(np.linalg.norm(resid))):
                return ExtReal(float(u @ piece.A @ u))
        return PLUS_INF

    def _arc_pieces(self, z, w, u) -> list[PlqPiece]:
        """The pieces admissible along w whose second-order tangent set
        along w holds u: those whose polyhedron admits the parabolic arc."""
        utol = ACT_TOL * (1.0 + float(np.linalg.norm(u)))
        return [self.pieces[i] for i in self._admissible(z, w)
                if residuals(second_order_tangent_cone(self.pieces[i].domain, z, w), u) <= utol]

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        """Active-piece expansion <A_i w, w> + <grad_i(z), u> minimized over the
        pieces whose polyhedron admits the parabolic arc."""
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        u = np.asarray(u, dtype=float)
        if not self.subderivative(z, w).is_finite:
            raise SubderivativeNotFinite("parabolic subderivative needs d g(z)(w) finite")
        vals = [ExtReal(float(w @ p.A @ w) + float(p.grad(z) @ u)) for p in self._arc_pieces(z, w, u)]
        return min(vals, default=PLUS_INF)

    def second_order_tangent_contains(self, z, w, u) -> bool:
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        return bool(self._arc_pieces(z, w, np.asarray(u, dtype=float)))

    def critical_cone(self, z, y, subdiff=None):
        """Polar of the shifted subdifferential: w is critical iff
        <v - y, w> <= 0 for every generator v of the subdifferential."""
        rep = self._require_subgradient(z, y, subdiff)
        y = np.asarray(y, dtype=float)
        rows_G = [np.asarray(p, dtype=float) - y for p in rep.points]
        rows_G += [np.asarray(r, dtype=float) for r in rep.rays]
        rows_E = [np.asarray(l, dtype=float) for l in rep.lines]
        G = [g for g in rows_G if np.linalg.norm(g) > 1e-12]
        return PolyhedralConeRepr(
            PolyCone.make_cone(
                self.ambient_dim,
                np.vstack(G) if G else None,
                np.vstack(rows_E) if rows_E else None,
            ),
            description="directions where the subderivative matches the multiplier pairing",
        )

    def dual_value(self, u, H, ms):
        """Exact dual over the multiplier polytope: the best vertex of <y, H>,
        from the vertices the multiplier set enumerated once (all of them,
        also those its membership checks dropped), plus the piece term
        <A_i u, u> of the admissible pieces; +inf when none is.

        Every multiplier y pairs with u = J w as <v, w> = dg(z)(u), and
        consistent pieces agree along a ray they share, so the piece term is
        the same for every y (Rockafellar & Wets 1998, ch. 13): the largest
        over the admissible pieces, ties keeping the lower piece index."""
        best = None
        utol = 1e-8 * (1.0 + float(np.linalg.norm(u)))
        for i in self._admissible(ms.z, u):
            term = float(u @ self.pieces[i].A @ u)
            if best is None or term > best + utol:
                best = term
        if best is None:
            return PLUS_INF, None
        val, arg = max_vertex(H, ms.vertices)
        return ExtReal(val + best), ms.ball_argmax(H, arg)

    def primal_value(self, u, H, ms) -> ExtReal:
        """Exact: per admissible piece, an LP over the pullback of the
        piece's second-order tangent cone; the smallest total wins."""
        z, J, v = ms.z, ms.J, ms.v
        best = None
        for i in self._admissible(z, u):
            piece = self.pieces[i]
            grad = piece.grad(z)
            T2 = second_order_tangent_cone(piece.domain, z, u)
            val = pullback_lp_min(-v + J.T @ grad, T2, J, H, v)
            if val is None:
                continue
            total = val + (float(u @ piece.A @ u) + float(grad @ H))
            if best is None or total < best:
                best = total
        return PLUS_INF if best is None else ExtReal(best)

    def second_order_matrix(self, z, y) -> np.ndarray | None:
        """A lone piece's matrix A: d2 g(z, y)(u) = <A u, u> on the whole
        critical cone.  None for several pieces, whose quadratics take turns
        on the critical cone."""
        return self.pieces[0].A if len(self.pieces) == 1 else None

    def basic_cq(self, z, J) -> bool:
        return not kernel_meets_cone(self._domain_normal_cone(z, self._active(z)), J.T)

    def lipschitz_bound(self, z) -> float:
        z = np.asarray(z, dtype=float)
        best = 0.0
        for p in self.pieces:
            spec = float(np.linalg.norm(p.A, 2)) if p.A.size else 0.0
            best = max(best, float(np.linalg.norm(p.grad(z))) + spec)
        return best

    def domain_project(self, z) -> np.ndarray:
        return each_row(self._project, z)

    def _project(self, z) -> np.ndarray:
        """The nearest of the pieces' projections of z: the first that exists
        unless a later one is strictly nearer, so an overflowing distance
        still finds one.  A lone piece's projection needs no distance."""
        best, best_d = None, None
        for p in self.pieces:
            q = project(p.domain, z)
            if q is None:
                continue
            if len(self.pieces) == 1:
                return q
            d = float(np.linalg.norm(z - q))
            if best is None or d < best_d:
                best, best_d = q, d
        if best is None:
            raise PointNotInDomain("PLQ domain is empty")
        return best

    def spot_check_agreement(self, n_samples: int = 200, seed: int = 7, tol: float = 1e-9) -> bool:
        """Sample pairwise piece intersections and confirm the values agree."""
        rng = np.random.default_rng(seed)
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                both = intersect(self.pieces[i].domain, self.pieces[j].domain)
                for _ in range(n_samples):
                    cand = rng.normal(size=self.ambient_dim)
                    q = project(both, cand)
                    if q is None:
                        break
                    vi, vj = self.pieces[i].value(q), self.pieces[j].value(q)
                    if abs(vi - vj) > tol * (1.0 + abs(vi)):
                        return False
        return True


class PolyhedralIndicator(PlqFunction):
    """Indicator of a polyhedron C in H-representation: the PLQ function with
    the one zero piece on C.  Its overrides only save work or keep the
    indicator's own shapes of the subdifferential and critical cone."""

    tag = "ind_polyhedron"

    def __init__(self, C: Polyhedron):
        super().__init__([PlqPiece(C, np.zeros((C.dim, C.dim)), np.zeros(C.dim), 0.0)])
        self.C = C
        self._axis_bounds = self._detect_axis_bounds(C)

    @staticmethod
    def _detect_axis_bounds(C: Polyhedron):
        """Componentwise (lo, hi) bounds when every constraint row touches a
        single coordinate; projection is then a clip, kept for speed: a few
        microseconds against 0.03-0.2 ms for ``project`` in R^1-R^3, and one
        orthant certify makes thousands of projections in its restorations."""
        lo = np.full(C.dim, -np.inf)
        hi = np.full(C.dim, np.inf)
        # an equality row is the inequality pair row <= d, -row <= -d
        for row, b in zip(np.vstack([C.G, C.E, -C.E]), np.concatenate([C.h, C.d, -C.d])):
            nz = np.nonzero(row)[0]
            if nz.size != 1:
                return None
            j = int(nz[0])
            if row[j] > 0:
                hi[j] = min(hi[j], b / row[j])
            else:
                lo[j] = max(lo[j], b / row[j])
        if np.any(lo > hi):
            return None
        return lo, hi

    def subdifferential(self, z):
        """The normal cone at z in H-representation only, cut out by the
        tangent cone's generators, without PLQ's conversion to generators
        and back."""
        active = self._active(z)
        if not active:
            raise PointNotInDomain("point outside dom g")
        return PolyhedronRep(self._domain_normal_cone(z, active))

    def critical_cone(self, z, y, subdiff=None):
        """Tangent cone intersected with the hyperplane y-perp (active-set form)."""
        self._require_subgradient(z, y, subdiff)
        y = np.asarray(y, dtype=float)
        T = tangent_cone(self.C, np.asarray(z, dtype=float))
        E = np.vstack([T.E, y.reshape(1, -1)]) if np.linalg.norm(y) > 0 else T.E
        return PolyhedralConeRepr(
            PolyCone.make_cone(self.ambient_dim, T.G if T.n_ineq else None, E),
            description="tangent cone cut by the multiplier hyperplane",
        )

    def domain_project(self, z) -> np.ndarray:
        if self._axis_bounds is None:
            return super().domain_project(z)
        lo, hi = self._axis_bounds
        return np.clip(np.asarray(z, dtype=float), lo, hi)


def nonpositive_orthant(dim: int) -> PolyhedralIndicator:
    return PolyhedralIndicator(Polyhedron.make(dim, G=np.eye(dim), h=np.zeros(dim)))


def zero_set(dim: int) -> PolyhedralIndicator:
    return PolyhedralIndicator(Polyhedron.make(dim, E=np.eye(dim), d=np.zeros(dim)))


def absolute_value() -> PlqFunction:
    """|.| on the line as a two-piece PLQ function."""
    left = PlqPiece(
        Polyhedron.make(1, G=[[1.0]], h=[0.0]), np.zeros((1, 1)), np.array([-1.0]), 0.0
    )
    right = PlqPiece(
        Polyhedron.make(1, G=[[-1.0]], h=[0.0]), np.zeros((1, 1)), np.array([1.0]), 0.0
    )
    return PlqFunction([left, right])
