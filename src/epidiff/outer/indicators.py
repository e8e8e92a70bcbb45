"""The indicator of the negative semidefinite cone.

Its second-order tangent set is the closed form of Bonnans & Shapiro
(*Perturbation Analysis of Optimization Problems*, 2000, sec. 5.3).  The
indicator of a polyhedron is a one-piece PLQ member (see ``plq``)."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, SubderivativeNotFinite, UnsupportedSpectralMultiplicity
from ..extreal import PLUS_INF, ExtReal
from ..numkit import cluster_tol, eigen_pinv, row_norms, smat, svec, svec_dim, sym_eig, sym_eigvals
from ..numkit.polyhedra import ACT_TOL, _nullspace
from .plq import INDICATOR_FEAS_TOL
from .reprs import PredicateConeRepr, SpectralRep
from .spectral import SymMatrixFunction, arc_expansion


def _tangent(E0, W) -> bool:
    """Whether W is tangent to the cone at a point whose zero eigenvalue
    cluster E0 spans: E0^T W E0 <= 0 to ACT_TOL * (1 + |W|)."""
    if E0.shape[1] == 0:
        return True
    comp = E0.T @ W @ E0
    lams, _ = sym_eig(0.5 * (comp + comp.T))
    return lams[0] <= ACT_TOL * (1.0 + float(np.linalg.norm(W)))


class NegSemidefIndicator(SymMatrixFunction):
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
        return ExtReal(0.0) if _tangent(self.subdifferential(z).basis, self._to_mat(w)) else PLUS_INF

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

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        """0 on the second-order tangent set, +inf off it."""
        if not self.subderivative(z, w).is_finite:
            raise SubderivativeNotFinite("parabolic subderivative needs d g(z)(w) finite")
        return ExtReal(0.0) if self.second_order_tangent_contains(z, w, u) else PLUS_INF

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

    def primal_value(self, u, H, ms) -> ExtReal:
        """The conjugate value <y, H + D>, D = -2 W A^+ W, at the one
        multiplier y of ms, which criticality puts on E1, where the tangent
        set is E1^T (U + D) E1 <= 0.  Zero when W pushes the whole cluster
        inward."""
        arc = self._arc(ms.z, u, np.zeros(self.ambient_dim))
        if arc is None:
            return ExtReal(0.0)
        return ExtReal(float(ms.first() @ (H + svec(arc[1]))))

    def critical_cone(self, z, y, subdiff=None):
        rep = self._require_subgradient(z, y, subdiff)
        V = self._to_mat(y)

        def pred(w):
            W = self._to_mat(w)
            if not _tangent(rep.basis, W):
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

    def lipschitz_bound(self, z) -> float:
        return 0.0

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
