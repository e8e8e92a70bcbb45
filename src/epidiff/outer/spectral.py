"""Eigenvalue members of the catalog: the leading-group sum, the maximum
eigenvalue, and the sum of the top i eigenvalues of a symmetric matrix.

Eigenvalues within gap_tol = 1e-8 * (1 + |A|) of each other are clustered;
the group bookkeeping (how many of the eigenvalues tied with the i-th are
ranked at or before i) drives every formula here, and the clustering rule
makes that bookkeeping reproducible under roundoff.

The parabolic subderivatives are closed forms for every cluster size: the
second-order expansion of an eigenvalue cluster along a parabolic arc
(Shapiro & Fan 1995 for the largest eigenvalue, Torki 2001 for every
eigenvalue), built once in arc_expansion and shared with the semidefinite
cone indicator.  The primal value minimizes that parabolic function over
U = J z' + H in one formula, the conjugate value at the multiplier y: when
the sum counts the whole binding sub-cluster, the function is affine in U
and y is its gradient; otherwise multipliers() has already required J to be
surjective, U ranges over all of S^n, and y is unique.

Arguments live on the isometrically vectorized space of symmetric matrices;
plain matrices are accepted and converted.
"""

from __future__ import annotations

import numpy as np

from ..extreal import PLUS_INF, ExtReal
from ..numkit import cluster_tol, eigen_pinv, smat, smat_batch, svec, svec_dim, sym_eig
from .base import OuterFunction
from .reprs import PredicateConeRepr, SpectralRep


def _to_mat(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return smat(z) if z.ndim == 1 else 0.5 * (z + z.T)


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


class AlphaEigFunction(OuterFunction):
    """Sum of the eigenvalues tied with the i-th one and ranked at or before i."""

    tag = "alpha_eig"

    def __init__(self, n: int, i: int = 1):
        if not 1 <= i <= n:
            raise ValueError("eigenvalue index out of range")
        self.n = int(n)
        self.i = int(i)
        self.ambient_dim = svec_dim(self.n)

    # -- structure at a point ----------------------------------------------------

    def _structure(self, A: np.ndarray):
        """(lams, Q, c_start, c_end, group_count) at the clustered spectrum;
        group_count is the number of tied eigenvalues ranked at or before i."""
        lams, Q = sym_eig(A)
        idx = self.i - 1
        c_start, c_end = _group(cluster_ranges(lams, cluster_tol(A)), idx)
        return lams, Q, c_start, c_end, idx - c_start + 1

    def _smooth_part(self, lams, Q, c_start) -> np.ndarray:
        """Gradient of the sum of the eigenvalues strictly above the cluster,
        zero unless the member counts them."""
        P = Q[:, : c_start if self._include_smooth else 0]
        return P @ P.T

    def _smooth_quadratic(self, lams, Q, c_start, W: np.ndarray) -> float:
        """Exact second-order form of that sum, zero unless it is counted."""
        Wt = Q.T @ W @ Q
        total = 0.0
        for j in range(c_start if self._include_smooth else 0):
            for l in range(c_start, self.n):
                total += Wt[j, l] ** 2 / (lams[j] - lams[l])
        return 2.0 * total

    # Whether the smooth strictly-above part participates (overridden by sums).
    _include_smooth = False

    # -- catalog operations --------------------------------------------------------

    def _value_from_spectrum(self, lams_desc: np.ndarray, gap: float) -> float:
        c_start, _ = _group(cluster_ranges(lams_desc, gap), self.i - 1)
        lo = 0 if self._include_smooth else c_start
        return float(np.sum(lams_desc[lo : self.i]))

    def value(self, z) -> ExtReal:
        A = _to_mat(self._require_dim(z))
        lams = np.linalg.eigvalsh(A)[::-1]
        return ExtReal(self._value_from_spectrum(lams, cluster_tol(A)))

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        mats = smat_batch(np.atleast_2d(np.asarray(Z, dtype=float)))
        spectra = np.linalg.eigvalsh(mats)[:, ::-1]
        gaps = cluster_tol(mats, axis=(1, 2))
        return np.array(
            [self._value_from_spectrum(lams, gap) for lams, gap in zip(spectra, gaps)]
        )

    def subdifferential(self, z):
        A = _to_mat(z)
        lams, Q, c_start, c_end, count = self._structure(A)
        return SpectralRep(self.n, self._smooth_part(lams, Q, c_start), Q[:, c_start:c_end], float(count))

    def subderivative(self, z, w) -> ExtReal:
        A, W = _to_mat(z), _to_mat(w)
        lams, Q, c_start, c_end, count = self._structure(A)
        E = Q[:, c_start:c_end]
        comp = E.T @ W @ E
        mu, _ = sym_eig(0.5 * (comp + comp.T))
        smooth = float(np.tensordot(self._smooth_part(lams, Q, c_start), W))
        return ExtReal(float(np.sum(mu[:count])) + smooth)

    def second_subderivative(self, z, y, u) -> ExtReal:
        """2 <V, W pinv(lam_i I - A) W> on the critical cone, +inf elsewhere.
        The pseudoinverse is assembled in the eigenbasis with the i-th cluster
        annihilated, so exact multiplicity never has to be detected."""
        self._require_subgradient(z, y)
        A, V, W = _to_mat(z), _to_mat(y), _to_mat(u)
        lams, Q, c_start, c_end, _ = self._structure(A)
        pair = float(np.tensordot(V, W))
        dval = self.subderivative(z, svec(W))
        if abs(dval.value - pair) > 1e-8 * (1.0 + abs(pair) + float(np.linalg.norm(W))):
            return PLUS_INF
        kill = [c_start <= j < c_end for j in range(self.n)]
        pinv_mat = eigen_pinv(lams[self.i - 1] - lams, Q, kill)
        V_alpha = V - self._smooth_part(lams, Q, c_start)
        total = 2.0 * float(np.tensordot(V_alpha, W @ pinv_mat @ W))
        return ExtReal(total + self._smooth_quadratic(lams, Q, c_start, W))

    def _arc(self, z, w, u):
        """(E_above, E1, r, C, P, s): the parabolic subderivative is
        tr(E_above^T C E_above) + (sum of the top r eigenvalues of
        E1^T C E1) + s, where the sums add s = <P, U> + (Hessian form) for
        the eigenvalues strictly above the cluster, P being their gradient."""
        A, W, U = _to_mat(z), _to_mat(w), _to_mat(u)
        lams, Q, c_start, c_end, count = self._structure(A)
        cluster = np.array([c_start <= j < c_end for j in range(self.n)])
        _, E_above, E1, C = arc_expansion(lams, Q, cluster, lams[self.i - 1], W, U, count)
        P = self._smooth_part(lams, Q, c_start)
        s = float(np.tensordot(P, U)) + self._smooth_quadratic(lams, Q, c_start, W)
        return E_above, E1, count - E_above.shape[1], C, P, s

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        E_above, E1, r, C, _, s = self._arc(z, w, u)
        nu, _ = sym_eig(E1.T @ C @ E1)
        return ExtReal(float(np.trace(E_above.T @ C @ E_above)) + float(np.sum(nu[:r])) + s)

    def primal_value(self, z, J, u, H, v) -> ExtReal:
        """The conjugate value p(-D) + <y, H + D> at the multiplier y, with
        D = C(0) and p the parabolic function, whose minimum over U is
        attained at U = -D.  When r covers E1, p is affine in U and y is its
        gradient; otherwise multipliers() has already required J to be
        surjective, and y is the unique solution of J^T y = v."""
        E_above, E1, r, D, P, _ = self._arc(z, u, np.zeros(self.ambient_dim))
        if r == E1.shape[1]:
            y = svec(P + E_above @ E_above.T + E1 @ E1.T)
        else:
            y = np.linalg.lstsq(J.T, v, rcond=None)[0]
        return self.parabolic_subderivative(z, u, -svec(D)) + float(y @ (H + svec(D)))

    def critical_cone(self, z, y):
        self._require_subgradient(z, y)
        V = _to_mat(y)

        def pred(w):
            W = _to_mat(w)
            pair = float(np.tensordot(V, W))
            d = self.subderivative(z, svec(W)).value
            return abs(d - pair) <= 1e-8 * (1.0 + abs(pair) + float(np.linalg.norm(W)))

        return PredicateConeRepr(pred, description="directions with tight subderivative pairing")

    def lipschitz_bound(self, z) -> float:
        return 2.0 * self.i

    def domain_project(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z if z.ndim == 1 else svec(_to_mat(z))


class MaxEigFunction(AlphaEigFunction):
    tag = "max_eig"

    def __init__(self, n: int):
        super().__init__(n, i=1)

    def lipschitz_bound(self, z) -> float:
        return 1.0


class SumTopEigFunction(AlphaEigFunction):
    """Sum of the i largest eigenvalues: the leading-group part plus a smooth
    eigenvalue-sum whose gradient and Hessian form are exact on the eigenbasis."""

    tag = "sum_top_eig"
    _include_smooth = True

    def lipschitz_bound(self, z) -> float:
        return float(self.i)
