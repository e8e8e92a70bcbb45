"""Eigenvalue members of the catalog: one class, g = S_i - S_s, the sum of
the eigenvalues ranked s+1..i (S_k sums the k largest).  max_eig is (0, 1)
and sum_top_eig (0, i), both convex (Ky Fan); alpha_eig anchors s at the
start of the i-th eigenvalue's cluster at the base point F(x), and for s > 0
is not convex.  g is C^2-reducible wherever lambda_s > lambda_(s+1) (Torki
2001) and (i - s)-Lipschitz (Hoffman & Wielandt 1953).

The value is the plain sum of the eigenvalues that numkit.sym_eigvals
gives; the closed forms take theirs from the Jacobi solver sym_eig, so the
oracle samples another eigensolver than the formulas it checks.  The closed
forms cluster eigenvalues within cluster_tol(A) of each other and split g
into a smooth sum (ranks s+1 up to the i-th eigenvalue's cluster) and a
partial cluster sum; the subdifferential holds that split, and the
subderivative and the critical cone read it.

The parabolic subderivatives are the second-order expansion of an
eigenvalue cluster along a parabolic arc (Shapiro & Fan 1995; Torki 2001),
built once in arc_expansion and shared with the semidefinite cone
indicator.  The primal value is its conjugate value at the multiplier.

Arguments live on the isometrically vectorized space of symmetric matrices:
every point is an svec vector of length n(n+1)/2.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedSpectralMultiplicity
from ..extreal import PLUS_INF, ExtReal
from ..numkit import cluster_tol, eigen_pinv, smat, svec, svec_dim, sym_eig, sym_eigvals
from .base import OuterFunction
from .reprs import PredicateConeRepr, SpectralRep


class SymMatrixFunction(OuterFunction):
    """A member on the vectorized symmetric n x n matrices."""

    n: int

    def _to_mat(self, z) -> np.ndarray:
        """smat of z, which must be a vector of length ambient_dim."""
        return smat(self._require_dim(z))


def cluster_ranges(lams_desc: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """Maximal (start, end) index ranges of near-equal descending eigenvalues."""
    clusters = []
    start = 0
    for j in range(1, len(lams_desc)):
        if lams_desc[start] - lams_desc[j] > gap:
            clusters.append((start, j))
            start = j
    clusters.append((start, len(lams_desc)))
    return clusters


def _support(rep: SpectralRep, W) -> float:
    """dg(z)(W), the support function at W of the subdifferential rep at z:
    the sum of the top trace eigenvalues of E^T W E, plus <base, W>."""
    comp = rep.basis.T @ W @ rep.basis
    mu, _ = sym_eig(0.5 * (comp + comp.T))
    return float(np.sum(mu[: int(rep.trace)])) + float(np.tensordot(rep.base, W))


def _group(clusters, idx: int) -> tuple[int, int]:
    for a, b in clusters:
        if a <= idx < b:
            return a, b
    raise IndexError(idx)


def arc_expansion(lams, Q, cluster, lam: float, W, U, pos: int):
    """Second-order expansion of an eigenvalue cluster of A = Q diag(lams) Q^T
    along the arc A + t W + t^2 U / 2 (Shapiro & Fan 1995; Torki 2001).

    cluster is a boolean mask of the cluster's eigenvalues, all near lam.
    With E its eigenvectors, they move as lam + t mu_j + t^2 nu_j / 2 + o(t^2):
    mu are the eigenvalues of E^T W E, descending, and on the sub-cluster of
    mu spanned by E1 the nu are the eigenvalues of E1^T C E1, with
    C = U + 2 W (lam I - A)^+ W.  Returns (mu, E_above, E1, C) for the
    sub-cluster E1 holding the pos-th mu; E_above spans the mu before it."""
    E = Q[:, cluster]
    M = E.T @ W @ E
    mu, R = sym_eig(0.5 * (M + M.T))
    a, b = _group(cluster_ranges(mu, cluster_tol(M)), pos - 1)
    C = U + 2.0 * W @ eigen_pinv(lam - lams, Q, cluster) @ W
    return mu, E @ R[:, :a], E @ R[:, a:b], C


class EigSumFunction(SymMatrixFunction):
    """g = S_i - S_s, the sum of the eigenvalues ranked s+1..i."""

    def __init__(self, n: int, s: int, i: int, tag: str):
        if not 0 <= s < i <= n:
            raise ValueError("eigenvalue index out of range")
        self.n = int(n)
        self.s = int(s)
        self.i = int(i)
        self.tag = tag
        self.ambient_dim = svec_dim(self.n)

    # -- structure at a point ----------------------------------------------------

    def _structure(self, A: np.ndarray):
        """(lams, Q, c_start, cluster, group_count): cluster masks the i-th
        eigenvalue's cluster, which starts at c_start, and group_count of its
        eigenvalues rank at or before i; ranks s+1..c_start are the smooth part."""
        lams, Q = sym_eig(A)
        clusters = cluster_ranges(lams, cluster_tol(A))
        if self.s and all(a != self.s for a, _ in clusters):
            raise UnsupportedSpectralMultiplicity(f"{self.tag}: lambda_{self.s} ties with lambda_{self.s + 1}")
        c_start, c_end = _group(clusters, self.i - 1)
        cluster = np.array([c_start <= j < c_end for j in range(self.n)])
        return lams, Q, c_start, cluster, self.i - c_start

    def _smooth_part(self, lams, Q, c_start) -> np.ndarray:
        """Gradient of the sum of the eigenvalues ranked s+1 .. c_start."""
        P = Q[:, self.s : c_start]
        return P @ P.T

    def _smooth_quadratic(self, lams, Q, c_start, W: np.ndarray) -> float:
        """Exact second-order form of that sum: its eigenvalues pair with
        every eigenvalue outside it."""
        Wt = Q.T @ W @ Q
        others = [l for l in range(self.n) if not self.s <= l < c_start]
        total = 0.0
        for j in range(self.s, c_start):
            for l in others:
                total += Wt[j, l] ** 2 / (lams[j] - lams[l])
        return 2.0 * total

    # -- catalog operations --------------------------------------------------------

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        mats = smat(np.atleast_2d(np.asarray(Z, dtype=float)))
        return sym_eigvals(mats)[:, ::-1][:, self.s : self.i].sum(axis=1)

    def subdifferential(self, z):
        A = self._to_mat(z)
        lams, Q, c_start, cluster, count = self._structure(A)
        return SpectralRep(self.n, self._smooth_part(lams, Q, c_start), Q[:, cluster], float(count))

    def subderivative(self, z, w) -> ExtReal:
        return ExtReal(_support(self.subdifferential(z), self._to_mat(w)))

    def second_subderivative(self, z, y, u) -> ExtReal:
        """2 <V, W pinv(lam_i I - A) W> on the critical cone, +inf elsewhere.
        The pseudoinverse is assembled in the eigenbasis with the i-th cluster
        annihilated, so exact multiplicity never has to be detected."""
        if not self.critical_cone(z, y).contains(u):
            return PLUS_INF
        A, V, W = self._to_mat(z), self._to_mat(y), self._to_mat(u)
        lams, Q, c_start, cluster, _ = self._structure(A)
        pinv_mat = eigen_pinv(lams[self.i - 1] - lams, Q, cluster)
        V_alpha = V - self._smooth_part(lams, Q, c_start)
        total = 2.0 * float(np.tensordot(V_alpha, W @ pinv_mat @ W))
        return ExtReal(total + self._smooth_quadratic(lams, Q, c_start, W))

    def _arc(self, z, w, u):
        """(E_above, E1, r, C, P, smooth): the parabolic subderivative is
        tr(E_above^T C E_above) + (sum of the top r eigenvalues of
        E1^T C E1) + smooth, where smooth = <P, U> + (Hessian form) expands
        the smooth part, P being its gradient."""
        A, W, U = self._to_mat(z), self._to_mat(w), self._to_mat(u)
        lams, Q, c_start, cluster, count = self._structure(A)
        _, E_above, E1, C = arc_expansion(lams, Q, cluster, lams[self.i - 1], W, U, count)
        P = self._smooth_part(lams, Q, c_start)
        smooth = float(np.tensordot(P, U)) + self._smooth_quadratic(lams, Q, c_start, W)
        return E_above, E1, count - E_above.shape[1], C, P, smooth

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        E_above, E1, r, C, _, smooth = self._arc(z, w, u)
        nu, _ = sym_eig(E1.T @ C @ E1)
        return ExtReal(float(np.trace(E_above.T @ C @ E_above)) + float(np.sum(nu[:r])) + smooth)

    def primal_value(self, u, H, ms) -> ExtReal:
        """The conjugate value p(-D) + <y, H + D> at the multiplier y, with
        D = C(0) and p the parabolic function of U = J z' + H, whose minimum
        is attained at U = -D.  When r covers E1, p is affine in U and y is
        its gradient; otherwise y is the one multiplier of ms."""
        E_above, E1, r, D, P, _ = self._arc(ms.z, u, np.zeros(self.ambient_dim))
        y = svec(P + E_above @ E_above.T + E1 @ E1.T) if r == E1.shape[1] else ms.first()
        return self.parabolic_subderivative(ms.z, u, -svec(D)) + float(y @ (H + svec(D)))

    def critical_cone(self, z, y, subdiff=None):
        rep = self._require_subgradient(z, y, subdiff)
        V = self._to_mat(y)

        def pred(w):
            W = self._to_mat(w)
            pair = float(np.tensordot(V, W))
            return abs(_support(rep, W) - pair) <= 1e-8 * (1.0 + abs(pair) + float(np.linalg.norm(W)))

        return PredicateConeRepr(pred, description="directions with tight subderivative pairing")

    def lipschitz_bound(self, z) -> float:
        return float(self.i - self.s)

    def domain_project(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float)


def max_eig(n: int) -> EigSumFunction:
    return EigSumFunction(n, 0, 1, "max_eig")


def sum_top_eig(n: int, i: int) -> EigSumFunction:
    return EigSumFunction(n, 0, i, "sum_top_eig")


def alpha_eig(n: int, i: int, z) -> EigSumFunction:
    """The eigenvalues tied with the i-th one at z and ranked at or before i,
    summed with s anchored at the start of that cluster at z."""
    probe = EigSumFunction(n, 0, i, "alpha_eig")
    s = probe._structure(probe._to_mat(z))[2]
    return EigSumFunction(n, s, i, "alpha_eig")
