"""Symmetric matrices: cyclic Jacobi eigensolver, a stacked eigenvalue-only
kernel, Moore-Penrose pseudoinverse, and the isometric vectorization used by
the spectral catalog.

The eigensolver is a hand-rolled cyclic Jacobi sweep with a fixed (p, q)
visiting order so that repeated runs produce bitwise-identical factors.  The
variational formulas downstream evaluate pseudoinverses at exactly singular
matrices, which is why the pseudoinverse inverts the eigenvalues of an
explicit mask (a cluster_tol cluster) to zero instead of relying on a
generic least-squares routine.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import DimensionMismatch, JacobiNotConverged

SYM_TOL = 1e-9
JACOBI_OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 60


def _symmetrized(A: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of every matrix in an (..., n, n) stack, after checking
    that each is finite and symmetric up to SYM_TOL * (1 + max |entry|)."""
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch("SymMatrix requires a square array")
    size = A.shape[:-2] + (A.shape[-1] ** 2,)
    flat = A.reshape(size)
    if not np.isfinite(flat).all():
        raise ValueError("SymMatrix entries must be finite")
    At = A.swapaxes(-1, -2)
    gap = np.abs(A - At).reshape(size).max(axis=-1, initial=0.0)
    if (gap > SYM_TOL * (1.0 + np.abs(flat).max(axis=-1, initial=0.0))).any():
        raise ValueError("input matrix is not symmetric")
    # (A + A^T)/2 is exactly symmetric in floating point.
    return 0.5 * (A + At)


def row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a C-ordered V, each bit for bit
    np.linalg.norm of that row (both are the square root of one dot
    product)."""
    return np.sqrt(np.vecdot(V, V))


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n identity and its off-diagonal mask, read-only."""
    eye, off = np.eye(n), ~np.eye(n, dtype=bool)
    eye.flags.writeable = off.flags.writeable = False
    return eye, off


def sym_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in decreasing order and an orthonormal eigenvector matrix Q
    with A = Q diag(lam) Q^T; for a (k, n, n) stack, (k, n) eigenvalues and
    (k, n, n) eigenvector matrices, each bit for bit the result for that
    matrix alone.

    Cyclic Jacobi rotations, sweeping (p, q) in row-major order until the
    off-diagonal Frobenius norm falls below JACOBI_OFFDIAG_TOL * (1 + |A|_F).
    Each rotation angle is worked out in scalar arithmetic per matrix, and
    the rotation is applied to every matrix of the stack that is not yet
    converged and whose (p, q) entry is not negligible.  A matrix still above
    the tolerance after MAX_SWEEPS sweeps raises JacobiNotConverged.
    Eigenvector signs are normalized (largest-magnitude entry positive) so
    the output is reproducible.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    M = _symmetrized(A[None] if single else A)
    k, n = M.shape[0], M.shape[-1]
    if n < 2:
        lams, Q = np.diagonal(M, axis1=1, axis2=2).copy(), np.tile(np.eye(n), (k, 1, 1))
        return (lams[0], Q[0]) if single else (lams, Q)
    # the matrices over their eigenvector accumulators: one array, so that a
    # column rotation turns both at once
    eye, off_mask = _eye(n)
    MQ = np.empty((k, 2 * n, n))
    MQ[:, :n], MQ[:, n:] = M, eye
    scale = JACOBI_OFFDIAG_TOL * (1.0 + row_norms(M.reshape(k, n * n)))
    live, finished = np.arange(k), []
    for sweep in range(MAX_SWEEPS + 1):
        # summing the off-diagonal squares directly avoids the catastrophic
        # cancellation of |M|_F^2 - |diag|_F^2 near convergence
        done = row_norms(MQ[:, :n][:, off_mask]) <= scale
        if done.all():
            finished.append((live, MQ))
            break
        if done.any():
            finished.append((live[done], MQ[done]))
            MQ, scale, live = MQ[~done], scale[~done], live[~done]
        if sweep == MAX_SWEEPS:
            raise JacobiNotConverged(
                f"Jacobi eigensolver: {live.size} of {k} matrices still above the "
                f"off-diagonal tolerance after {MAX_SWEEPS} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(MQ, p, q)
    if len(finished) == 1:
        MQ = finished[0][1]
    else:
        MQ = np.empty((k, 2 * n, n))
        for rows, part in finished:
            MQ[rows] = part
    lams = MQ[:, :n].diagonal(0, 1, 2)
    order = (-lams).argsort(axis=1, kind="stable")
    at = np.arange(k)[:, None]
    lams, Q = lams[at, order], MQ[:, n:][at, :, order].swapaxes(1, 2)
    lead = Q[at, np.abs(Q).argmax(axis=1), np.arange(n)]
    np.negative(Q, out=Q, where=(lead < 0)[:, None, :])
    return (lams[0], Q[0]) if single else (lams, Q)


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues in increasing order of every matrix of a symmetric
    (k, n, n) stack, as (k, n), read from the lower triangle as
    np.linalg.eigvalsh reads it; each row is bit for bit the result for
    that matrix alone, and a matrix with a non-finite entry gets NaN for
    every eigenvalue.

    n = 1 is the entry and n = 2 the closed form mid -+ hypot(a/2 - c/2, b)
    with mid = a/2 + c/2, halved before adding so that no finite matrix
    overflows; n >= 3 goes to LAPACK one matrix at a time.  The catalog
    values matrices with it, while its closed forms keep sym_eig, so an
    oracle sampling those values never shares a solver with the formulas
    it checks.
    """
    M = np.asarray(M, dtype=float)
    k, n = M.shape[0], M.shape[-1]
    if not np.isfinite(M).all():
        finite = np.isfinite(M).all(axis=(1, 2))
        lams = np.full((k, n), np.nan)
        lams[finite] = sym_eigvals(M[finite])
        return lams
    if n >= 3:
        return np.linalg.eigvalsh(M)
    if n < 2:
        return M.reshape(k, n).copy()
    a, b, c = 0.5 * M[:, 0, 0], M[:, 1, 0], 0.5 * M[:, 1, 1]
    mid, r = a + c, np.hypot(a - c, b)
    return np.stack((mid - r, mid + r), axis=1)


def _rotate(MQ: np.ndarray, p: int, q: int):
    """One Jacobi rotation in the (p, q) plane of every matrix M of the stack
    MQ = [M; Q] whose (p, q) entry is not negligible, accumulated into Q."""
    rows, cs = [], []
    entries = zip(MQ[:, p, q].tolist(), MQ[:, p, p].tolist(), MQ[:, q, q].tolist())
    for i, (apq, app, aqq) in enumerate(entries):
        if abs(apq) <= 1e-300:
            continue
        # Classic stable rotation angle computation.
        theta = (aqq - app) / (2.0 * apq)
        if abs(theta) >= 1e150:
            t = 1.0 / (2.0 * theta)
        else:
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
        c = 1.0 / math.sqrt(1.0 + t * t)
        rows.append(i)
        cs.append((c, t * c))
    if not rows:
        return
    whole = len(rows) == MQ.shape[0]
    X = MQ if whole else MQ[rows]
    c, s = np.array(cs).T[:, :, None]
    col_p, col_q = X[:, :, p], X[:, :, q]
    X[:, :, p], X[:, :, q] = c * col_p - s * col_q, s * col_p + c * col_q
    row_p, row_q = X[:, p, :], X[:, q, :]
    X[:, p, :], X[:, q, :] = c * row_p - s * row_q, s * row_p + c * row_q
    X[:, p, q] = X[:, q, p] = 0.0
    if not whole:
        MQ[rows] = X


def eigen_pinv(lams, Q: np.ndarray, kill) -> np.ndarray:
    """Q diag(1/lams) Q^T with the eigenvalues marked in the boolean mask kill
    inverted to zero instead."""
    inv = np.array([0.0 if k else 1.0 / l for l, k in zip(lams, kill)])
    return Q @ np.diag(inv) @ Q.T


def cluster_tol(A):
    """Eigenvalues of A closer than this are one cluster: 1e-8 * (1 + |A|_F)."""
    return 1e-8 * (1.0 + np.linalg.norm(A))


def operator_norm(M) -> float:
    """Spectral norm of a (possibly rectangular) matrix via sym_eig of M M^T."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lams, _ = sym_eig(M @ M.T)
    return math.sqrt(max(0.0, float(lams[0])))


# -- isometric vectorization of S^n --------------------------------------------
#
# Lower-triangle row-major order with off-diagonal entries scaled by sqrt(2),
# so <svec(A), svec(B)> equals the trace inner product <A, B>.

_SQRT2 = math.sqrt(2.0)


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def svec(A) -> np.ndarray:
    """svec of a symmetric matrix, or of every matrix in a (k, n, n) stack."""
    A = _symmetrized(np.asarray(A, dtype=float))
    n = A.shape[-1]
    out = np.empty(A.shape[:-2] + (svec_dim(n),))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            out[..., k] = A[..., i, j] if i == j else _SQRT2 * A[..., i, j]
            k += 1
    return out


def smat(v) -> np.ndarray:
    """The symmetric matrix of an svec, or of every row of a (..., d) stack."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    n = int(round((math.sqrt(8 * d + 1) - 1) / 2))
    if svec_dim(n) != d:
        raise DimensionMismatch(f"length {d} is not a triangular number")
    A = np.zeros(v.shape[:-1] + (n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            if i == j:
                A[..., i, i] = v[..., k]
            else:
                A[..., i, j] = A[..., j, i] = v[..., k] / _SQRT2
            k += 1
    return A
