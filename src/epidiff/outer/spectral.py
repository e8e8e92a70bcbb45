"""Eigenvalue members of the catalog: the leading-group sum, the maximum
eigenvalue, and the sum of the top i eigenvalues of a symmetric matrix.

Eigenvalues within gap_tol = 1e-8 * (1 + |A|) of each other are clustered;
the group bookkeeping (how many of the eigenvalues tied with the i-th are
ranked at or before i) drives every formula here, and the clustering rule
makes that bookkeeping reproducible under roundoff.

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


def clustered_eig(A: np.ndarray):
    """Eigendecomposition plus maximal clusters of near-equal eigenvalues.

    Returns (lams descending, Q, clusters) where clusters is a list of
    (start, end) index ranges partitioning 0..n-1.
    """
    lams, Q = sym_eig(A)
    return lams, Q, cluster_ranges(lams, cluster_tol(A))


def _group(clusters, idx: int) -> tuple[int, int]:
    for a, b in clusters:
        if a <= idx < b:
            return a, b
    raise IndexError(idx)


class AlphaEigFunction(OuterFunction):
    """Sum of the eigenvalues tied with the i-th one and ranked at or before i."""

    tag = "alpha_eig"
    parabolic_closed_form = False

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
        lams, Q, clusters = clustered_eig(A)
        idx = self.i - 1
        c_start, c_end = _group(clusters, idx)
        return lams, Q, c_start, c_end, idx - c_start + 1

    def _smooth_part(self, lams, Q, c_start) -> np.ndarray:
        """Gradient of the sum of the eigenvalues strictly above the cluster."""
        if c_start == 0:
            return np.zeros((self.n, self.n))
        P = Q[:, :c_start]
        return P @ P.T

    def _smooth_quadratic(self, lams, Q, c_start, W: np.ndarray) -> float:
        """Exact second-order form of the strictly-above-cluster eigenvalue sum."""
        if c_start == 0:
            return 0.0
        Wt = Q.T @ W @ Q
        total = 0.0
        for j in range(c_start):
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
        base = self._smooth_part(lams, Q, c_start) if self._include_smooth else np.zeros((self.n, self.n))
        return SpectralRep(self.n, base, Q[:, c_start:c_end], float(count))

    def subderivative(self, z, w) -> ExtReal:
        A, W = _to_mat(z), _to_mat(w)
        lams, Q, c_start, c_end, count = self._structure(A)
        E = Q[:, c_start:c_end]
        comp = E.T @ W @ E
        mu, _ = sym_eig(0.5 * (comp + comp.T))
        val = float(np.sum(mu[:count]))
        if self._include_smooth and c_start:
            val += float(np.tensordot(self._smooth_part(lams, Q, c_start), W))
        return ExtReal(val)

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
        V_alpha = V
        if self._include_smooth:
            V_alpha = V - self._smooth_part(lams, Q, c_start)
        total = 2.0 * float(np.tensordot(V_alpha, W @ pinv_mat @ W))
        if self._include_smooth:
            total += self._smooth_quadratic(lams, Q, c_start, W)
        return ExtReal(total)

    def parabolic_subderivative(self, z, w, u, schedule=None) -> ExtReal:
        """Numeric fallback (flagged): parabolic difference-quotient estimate."""
        from ..core import GridSchedule
        from ..oracle import SampledFunction, estimate_parabolic_subderivative

        sched = schedule or GridSchedule()
        f = SampledFunction(
            evaluator=lambda x: self.value(x),
            dim=self.ambient_dim,
            description=f"{self.tag} evaluator",
        )
        z = svec(_to_mat(z))
        w = svec(_to_mat(w))
        u = svec(_to_mat(u))
        dfw = self.subderivative(z, w).value
        return estimate_parabolic_subderivative(f, z, w, dfw, u, sched)

    def second_order_tangent_contains(self, z, w, u, schedule=None) -> bool:
        return True  # full domain

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

    def domain_distance(self, z) -> float:
        return 0.0

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
