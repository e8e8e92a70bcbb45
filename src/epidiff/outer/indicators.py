"""Indicator members of the catalog: polyhedral sets and the negative
semidefinite cone.

Both second-order tangent sets are closed forms: active-row algebra for a
polyhedron, and for the semidefinite cone the set of Bonnans & Shapiro
(*Perturbation Analysis of Optimization Problems*, 2000, sec. 5.3)."""

from __future__ import annotations

import numpy as np

from ..errors import (
    DimensionMismatch,
    PointNotInDomain,
    SubderivativeNotFinite,
    TangentPreconditionFailed,
    UnsupportedSpectralMultiplicity,
)
from ..extreal import PLUS_INF, ExtReal
from ..numkit import (
    PolyCone,
    Polyhedron,
    cluster_tol,
    eigen_pinv,
    project,
    row_norms,
    smat,
    svec,
    svec_dim,
    sym_eig,
    sym_eigvals,
    tangent_cone,
)
from ..numkit.polyhedra import (
    ACT_TOL,
    _nullspace,
    _row_scales,
    kernel_meets_cone,
    max_vertex,
    normal_cone_hrep,
    pullback_lp_min,
    residuals,
)
from .base import OuterFunction, each_row
from .reprs import PolyhedralConeRepr, PolyhedronRep, PredicateConeRepr, SpectralRep
from .spectral import SymMatrixFunction, arc_expansion

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


class _Indicator(OuterFunction):
    """Shared by the indicators: the parabolic subderivative is 0 on the
    second-order tangent set, +inf off it; the value is constant on the domain."""

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        if not self.subderivative(z, w).is_finite:
            raise SubderivativeNotFinite("parabolic subderivative needs d g(z)(w) finite")
        return ExtReal(0.0) if self.second_order_tangent_contains(z, w, u) else PLUS_INF

    def lipschitz_bound(self, z) -> float:
        return 0.0


class PolyhedralIndicator(_Indicator):
    """Indicator of a polyhedron in H-representation."""

    tag = "ind_polyhedron"

    def __init__(self, C: Polyhedron):
        self.C = C
        self.ambient_dim = C.dim
        self._axis_bounds = self._detect_axis_bounds(C)

    @staticmethod
    def _detect_axis_bounds(C: Polyhedron):
        """Componentwise (lo, hi) bounds when every constraint row touches a
        single coordinate; projection is then a clip, kept for speed: a few
        microseconds against 0.03-0.2 ms for ``project`` in R^1-R^3, and one
        orthant certify makes thousands of projections in its restorations."""
        lo = np.full(C.dim, -np.inf)
        hi = np.full(C.dim, np.inf)
        for rows, rhs, is_eq in ((C.G, C.h, False), (C.E, C.d, True)):
            for row, b in zip(rows, rhs):
                nz = np.nonzero(row)[0]
                if nz.size != 1:
                    return None
                j, coef = int(nz[0]), row[nz[0]]
                bound = b / coef
                if is_eq:
                    lo[j] = max(lo[j], bound)
                    hi[j] = min(hi[j], bound)
                elif coef > 0:
                    hi[j] = min(hi[j], bound)
                else:
                    lo[j] = max(lo[j], bound)
        if np.any(lo > hi):
            return None
        return lo, hi

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        tol = INDICATOR_FEAS_TOL * (1.0 + row_norms(Z))
        return np.where(residuals(self.C, Z) <= tol, 0.0, np.inf)

    def subdifferential(self, z):
        """The normal cone at z, in H-representation only: the polar of the
        tangent cone, cut out by the tangent generators."""
        self._require_in_domain_geom(z)
        return PolyhedronRep(normal_cone_hrep([self.C], z))

    def subderivative(self, z, w) -> ExtReal:
        self._require_in_domain_geom(z)
        T = tangent_cone(self.C, np.asarray(z, dtype=float))
        w = np.asarray(w, dtype=float)
        inside = residuals(T, w) <= ACT_TOL * (1.0 + float(np.linalg.norm(w)))
        return ExtReal(0.0) if inside else PLUS_INF

    def second_subderivative(self, z, y, u) -> ExtReal:
        return ExtReal(0.0) if self.critical_cone(z, y).contains(u) else PLUS_INF

    def second_order_tangent_contains(self, z, w, u) -> bool:
        cone = second_order_tangent_cone(self.C, z, w)
        u = np.asarray(u, dtype=float)
        return residuals(cone, u) <= ACT_TOL * (1.0 + float(np.linalg.norm(u)))

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

    def dual_value(self, z, u, H, multys):
        """The second-order term vanishes on critical data, so the dual is
        an LP over the multiplier polytope: its best vertex, from the
        vertices the multiplier set enumerated once (all of them, also those
        its membership checks dropped)."""
        val, arg = max_vertex(H, multys.vertices)
        return ExtReal(val), multys.ball_argmax(H, arg)

    def second_order_matrix(self, z, y) -> np.ndarray:
        """Zero: the second-order term vanishes on the critical cone."""
        return np.zeros((self.ambient_dim, self.ambient_dim))

    def primal_value(self, z, J, u, H, v) -> ExtReal:
        """An exact LP over the pullback of the second-order tangent cone."""
        val = pullback_lp_min(-v, second_order_tangent_cone(self.C, z, u), J, H, v)
        return PLUS_INF if val is None else ExtReal(val)

    def basic_cq(self, z, J) -> bool:
        return not kernel_meets_cone(normal_cone_hrep([self.C], z), J.T)

    def domain_project(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self._axis_bounds is not None:
            lo, hi = self._axis_bounds
            return np.clip(z, lo, hi)
        return each_row(self._project, z)

    def _project(self, z) -> np.ndarray:
        p = project(self.C, z)
        if p is None:
            raise PointNotInDomain("the indicator domain is empty")
        return p

    def _require_in_domain_geom(self, z):
        z = self._require_dim(z)
        if residuals(self.C, z) > ACT_TOL * (1.0 + float(np.linalg.norm(z))):
            raise PointNotInDomain("point outside the indicator domain")


def nonpositive_orthant(dim: int) -> PolyhedralIndicator:
    return PolyhedralIndicator(Polyhedron.make(dim, G=np.eye(dim), h=np.zeros(dim)))


def zero_set(dim: int) -> PolyhedralIndicator:
    return PolyhedralIndicator(Polyhedron.make(dim, E=np.eye(dim), d=np.zeros(dim)))


class NegSemidefIndicator(_Indicator, SymMatrixFunction):
    """Indicator of the negative semidefinite cone on vectorized S^n."""

    tag = "ind_negsemidef"

    def __init__(self, n: int):
        self.n = int(n)
        self.ambient_dim = svec_dim(self.n)

    # -- helpers ----------------------------------------------------------------

    def _zero_cluster_basis(self, A: np.ndarray) -> np.ndarray:
        """Orthonormal basis of the near-zero top eigenvalue cluster (empty if
        the matrix is negative definite at the clustering tolerance)."""
        lams, Q = sym_eig(A)
        return Q[:, np.abs(lams) <= cluster_tol(A)]

    # -- catalog operations -------------------------------------------------------

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        """0 where the largest eigenvalue from numkit.sym_eigvals is at most
        INDICATOR_FEAS_TOL * (1 + |M|_F), +inf elsewhere and on a matrix with
        a non-finite entry.  The closed forms take their eigenvalues from the
        Jacobi solver sym_eig instead, so the values the oracle samples come
        from another eigensolver than the formulas it checks."""
        mats = smat(np.atleast_2d(np.asarray(Z, dtype=float)))
        lam_max = sym_eigvals(mats)[:, -1]
        tol = INDICATOR_FEAS_TOL * (1.0 + row_norms(mats.reshape(-1, self.n * self.n)))
        return np.where(lam_max <= tol, 0.0, np.inf)

    def subdifferential(self, z):
        self._require_in_domain(z)
        A = self._to_mat(z)
        return SpectralRep(self.n, np.zeros((self.n, self.n)), self._zero_cluster_basis(A), None)

    def subderivative(self, z, w) -> ExtReal:
        self._require_in_domain(z)
        A, W = self._to_mat(z), self._to_mat(w)
        E0 = self._zero_cluster_basis(A)
        if E0.shape[1] == 0:
            return ExtReal(0.0)
        comp = E0.T @ W @ E0
        lams, _ = sym_eig(0.5 * (comp + comp.T))
        return ExtReal(0.0) if lams[0] <= ACT_TOL * (1.0 + float(np.linalg.norm(W))) else PLUS_INF

    def second_subderivative(self, z, y, u) -> ExtReal:
        """-2 <V, W pinv(A) W> on the critical cone, +inf elsewhere; the
        pseudoinverse is formed in the eigenbasis with the zero cluster
        annihilated."""
        A, V, W = self._to_mat(z), self._to_mat(y), self._to_mat(u)
        if not self.critical_cone(z, y).contains(svec(W)):
            return PLUS_INF
        lams, Q = sym_eig(A)
        Adag = eigen_pinv(lams, Q, np.abs(lams) <= cluster_tol(A))
        return ExtReal(-2.0 * float(np.tensordot(V, W @ Adag @ W)))

    def _arc(self, z, w, u):
        """arc_expansion's (E1, C) at the zero cluster of A, or None when A is
        negative definite or W pushes the whole zero cluster inward."""
        A, W, U = self._to_mat(z), self._to_mat(w), self._to_mat(u)
        lams, Q = sym_eig(A)
        zero = np.abs(lams) <= cluster_tol(A)
        if not zero.any():
            return None
        mu, _, E1, C = arc_expansion(lams, Q, zero, 0.0, W, U, 1)
        if mu[0] < -ACT_TOL * (1.0 + float(np.linalg.norm(W))):
            return None
        return E1, C

    def second_order_tangent_contains(self, z, w, u) -> bool:
        """Closed form (Bonnans & Shapiro 2000, sec. 5.3): E1^T (U - 2 W A^+ W)
        E1 <= 0, E1 spanning the part of the zero cluster E0 of A on which
        E0^T W E0 vanishes; the set is empty when W is not tangent."""
        if not self.subderivative(z, w).is_finite:
            return False
        arc = self._arc(z, w, u)
        if arc is None:
            return True
        E1, C = arc
        nu, _ = sym_eig(E1.T @ C @ E1)
        return nu[0] <= ACT_TOL * (1.0 + float(np.linalg.norm(C)))

    def primal_value(self, z, J, u, H, v) -> ExtReal:
        """The conjugate value <y, H + D>, D = -2 W A^+ W, at the unique
        multiplier y: a nonempty zero cluster leaves the multiplier cone
        unpinned, so multipliers() has already required J to be surjective,
        and criticality puts y on E1, where the tangent set is
        E1^T (U + D) E1 <= 0.  Zero when W pushes the whole cluster inward."""
        arc = self._arc(z, u, np.zeros(self.ambient_dim))
        if arc is None:
            return ExtReal(0.0)
        y = np.linalg.lstsq(J.T, v, rcond=None)[0]
        return ExtReal(float(y @ (H + svec(arc[1]))))

    def critical_cone(self, z, y, subdiff=None):
        self._require_subgradient(z, y, subdiff)
        V = self._to_mat(y)

        def pred(w):
            W = self._to_mat(w)
            if not self.subderivative(z, svec(W)).is_finite:
                return False
            pairing = float(np.tensordot(V, W))
            return abs(pairing) <= 1e-8 * (1.0 + np.linalg.norm(V) * np.linalg.norm(W))

        return PredicateConeRepr(pred, "tangent directions orthogonal to the multiplier",
                                 lambda w: self.project_critical(z, y, w))

    def project_critical(self, z, y, w) -> np.ndarray:
        """Alternating projection of a direction onto the critical cone at
        (z, y), 25 rounds of: kill the multiplier pairing, then clip the
        compression on the zero-eigenvalue cluster."""
        A, V, W = self._to_mat(z), self._to_mat(y), self._to_mat(w)
        E0 = self._zero_cluster_basis(A)
        vnorm2 = float(np.tensordot(V, V))
        for _ in range(25):
            if vnorm2 > 1e-300:
                W = W - V * (float(np.tensordot(V, W)) / vnorm2)
            if E0.shape[1]:
                comp = E0.T @ W @ E0
                lams, Q = sym_eig(0.5 * (comp + comp.T))
                pos = Q @ np.diag(np.maximum(lams, 0.0)) @ Q.T
                W = W - E0 @ pos @ E0.T
        return svec(W)

    def basic_cq(self, z, J) -> bool:
        """Exact test on the normal cone {E0 Theta E0^T : Theta >= 0} over
        the zero cluster E0 (Bonnans & Shapiro 2000, sec. 5.3).  With a
        2-dimensional cluster, L(Theta) = adj(J) svec(E0 Theta E0^T) acts on
        S^2, and S^2_+ is self-dual (isometric to the 3-D Lorentz cone): with
        r = dim ker L, the kernel meets S^2_+ minus {0} never for r = 0,
        always for r = 3, iff its generator is semidefinite for r = 1, and
        iff the normal of the kernel plane is not definite for r = 2."""
        E0 = self._zero_cluster_basis(self._to_mat(z))
        k = E0.shape[1]
        if k == 0:
            return True
        if k == 1:
            gen = svec(np.outer(E0[:, 0], E0[:, 0]))
            return float(np.linalg.norm(J.T @ gen)) > 1e-8
        if k > 2:
            raise UnsupportedSpectralMultiplicity("normal cone cluster of dimension > 2")
        L = np.column_stack([J.T @ svec(E0 @ smat(e) @ E0.T) for e in np.eye(3)])
        K = _nullspace(L, 3)
        r = K.shape[1]
        if r in (0, 3):
            return r == 0
        tol = 1e-9
        if r == 1:
            lams = sym_eigvals(smat(K[:, 0][None]))[0]
            return lams[0] < -tol and lams[-1] > tol  # indefinite: no cone point
        lams = sym_eigvals(smat(np.cross(K[:, 0], K[:, 1])[None]))[0]
        return lams[0] > tol or lams[-1] < -tol  # definite normal: plane misses the cone

    def _spectra(self, z):
        """(z as a point or a stack, eigenvalues, eigenvectors) of smat of
        each row of z."""
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[-1] != self.ambient_dim:
            raise DimensionMismatch(f"{self.tag}: expected rows of length {self.ambient_dim}")
        lams, Q = sym_eig(smat(np.atleast_2d(z)))
        return z, lams, Q

    def domain_distance(self, z):
        z, lams, _ = self._spectra(z)
        dist = row_norms(np.maximum(lams, 0.0))
        return float(dist[0]) if z.ndim == 1 else dist

    def domain_project(self, z) -> np.ndarray:
        """Clip the eigenvalues at zero: Q diag(min(lam, 0)) Q^T, for a point
        or a (k, m) stack in one batched eigensolve."""
        z, lams, Q = self._spectra(z)
        D = np.zeros(Q.shape)
        diag = np.arange(self.n)
        D[:, diag, diag] = np.minimum(lams, 0.0)
        P = svec(Q @ D @ Q.swapaxes(1, 2))
        return P[0] if z.ndim == 1 else P
