"""Symmetric matrices: cyclic Jacobi eigensolver, Moore-Penrose pseudoinverse,
and the isometric vectorization used by the spectral catalog.

The eigensolver is a hand-rolled cyclic Jacobi sweep with a fixed (p, q)
visiting order so that repeated runs produce bitwise-identical factors.  The
variational formulas downstream evaluate pseudoinverses at exactly singular
matrices, which is why the pseudoinverse treats near-zero eigenvalues as zero
via an explicit cutoff instead of relying on a generic least-squares routine.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch

SYM_TOL = 1e-9
JACOBI_OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 60


class SymMatrix:
    """An exactly symmetric n x n real matrix."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        A = np.array(entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("SymMatrix requires a square array")
        if not np.all(np.isfinite(A)):
            raise ValueError("SymMatrix entries must be finite")
        scale = 1.0 + np.abs(A).max(initial=0.0)
        if np.abs(A - A.T).max(initial=0.0) > SYM_TOL * scale:
            raise ValueError("input matrix is not symmetric")
        # (A + A^T)/2 is exactly symmetric in floating point.
        A = 0.5 * (A + A.T)
        A.flags.writeable = False
        self.n = A.shape[0]
        self.entries = A

    def __repr__(self):
        return f"SymMatrix(n={self.n})"

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def as_sym_matrix(A) -> SymMatrix:
    return A if isinstance(A, SymMatrix) else SymMatrix(A)


def sym_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in decreasing order and an orthonormal eigenvector matrix Q
    with A = Q diag(lam) Q^T.

    Cyclic Jacobi rotations, sweeping (p, q) in row-major order until the
    off-diagonal Frobenius norm falls below JACOBI_OFFDIAG_TOL * (1 + |A|_F).
    Eigenvector signs are normalized (largest-magnitude entry positive) so the
    output is reproducible.
    """
    A = as_sym_matrix(A)
    n = A.n
    M = np.array(A.entries)
    Q = np.eye(n)
    if n == 1:
        return np.array([M[0, 0]]), Q
    scale = 1.0 + float(np.linalg.norm(M))
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(MAX_SWEEPS):
        # summing the off-diagonal squares directly avoids the catastrophic
        # cancellation of |M|_F^2 - |diag|_F^2 near convergence
        off = float(np.linalg.norm(M[off_mask]))
        if off <= JACOBI_OFFDIAG_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = M[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Classic stable rotation angle computation.
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


def pinv(A, cutoff: float | None = None) -> SymMatrix:
    """Moore-Penrose pseudoinverse of a symmetric matrix in its eigenbasis.

    Eigenvalues with |lam| <= cutoff invert to zero.  The default cutoff
    1e-10 * max(1, |A|_F) treats the exactly singular matrices that appear in
    the closed-form second subderivatives as singular despite roundoff.
    """
    A = as_sym_matrix(A)
    if cutoff is None:
        cutoff = 1e-10 * max(1.0, float(np.linalg.norm(A.entries)))
    if cutoff <= 0:
        raise ValueError("pinv cutoff must be positive")
    lams, Q = sym_eig(A)
    return SymMatrix(eigen_pinv(lams, Q, np.abs(lams) <= cutoff))


def eigen_pinv(lams, Q: np.ndarray, kill) -> np.ndarray:
    """Q diag(1/lams) Q^T with the eigenvalues marked in the boolean mask kill
    inverted to zero instead."""
    inv = np.array([0.0 if k else 1.0 / l for l, k in zip(lams, kill)])
    return Q @ np.diag(inv) @ Q.T


def cluster_tol(A, axis=None):
    """Eigenvalues of A closer than this are one cluster: 1e-8 * (1 + |A|_F),
    per matrix over the given axes of a stack."""
    return 1e-8 * (1.0 + np.linalg.norm(A, axis=axis))


def operator_norm(M) -> float:
    """Spectral norm of a (possibly rectangular) matrix via sym_eig of M M^T."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lams, _ = sym_eig(SymMatrix(M @ M.T))
    return math.sqrt(max(0.0, float(lams[0])))


# -- isometric vectorization of S^n --------------------------------------------
#
# Lower-triangle row-major order with off-diagonal entries scaled by sqrt(2),
# so <svec(A), svec(B)> equals the trace inner product <A, B>.

_SQRT2 = math.sqrt(2.0)


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def svec(A) -> np.ndarray:
    A = as_sym_matrix(A).entries
    n = A.shape[0]
    out = np.empty(svec_dim(n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            out[k] = A[i, j] if i == j else _SQRT2 * A[i, j]
            k += 1
    return out


def smat(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    n = int(round((math.sqrt(8 * d + 1) - 1) / 2))
    if svec_dim(n) != d:
        raise DimensionMismatch(f"length {d} is not a triangular number")
    A = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            if i == j:
                A[i, i] = v[k]
            else:
                A[i, j] = A[j, i] = v[k] / _SQRT2
            k += 1
    return A


def smat_batch(V: np.ndarray) -> np.ndarray:
    """Vectorized smat: (N, n(n+1)/2) -> (N, n, n)."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    d = V.shape[1]
    n = int(round((math.sqrt(8 * d + 1) - 1) / 2))
    if svec_dim(n) != d:
        raise DimensionMismatch(f"length {d} is not a triangular number")
    out = np.zeros((V.shape[0], n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            if i == j:
                out[:, i, i] = V[:, k]
            else:
                out[:, i, j] = out[:, j, i] = V[:, k] / _SQRT2
            k += 1
    return out
