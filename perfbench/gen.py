"""Seeded problem generators for the benchmark workloads.

Every generated problem carries the answer it was built to have, so the
checks in ``checks.py`` can judge the CLI's reports without calling into the
library.  Coefficients are exact dyadic rationals where the construction
allows it and are otherwise written with ``repr`` (full precision), so
stationarity and feasibility hold to the library's 1e-8 tolerances.

A workload is an endless stream of rounds.  Round ``r`` of seed ``s`` is drawn
from ``numpy.random.default_rng([s, r])``, so a round never depends on how many
rounds came before it, and one round holds one problem of every shape in the
workload's mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)

WORKLOADS = ("spectral-oracle", "polyhedral-scaling", "certify-smooth")

# Critical directions passed with --dir on each spectral problem.
SPECTRAL_DIRS = 1
# Outer dimensions swept on the polyhedral workload, one problem per (tag, m).
POLY_M = (3, 4, 5, 6, 7, 8)
POLY_SHAPES = (("ind_nonpos", 2), ("ind_polyhedron", 3))
# (n, m) shapes of the smooth certify problems: m active constraints in R^n.
CERTIFY_SHAPES = ((2, 1), (3, 2), (4, 3), (3, 1))


@dataclass
class Problem:
    """One generated problem file plus the commands to run on it and the data
    its answers are checked against."""

    pid: str
    kind: str
    data: dict
    commands: list  # [(command, [extra argv])]
    expect: dict = field(default_factory=dict)
    m: int = 0


# -- small exact helpers ---------------------------------------------------------


def dyadic(rng, lo: int, hi: int, size=None, denom: int = 8):
    """Uniform integers in [lo, hi] over ``denom``: exact binary fractions."""
    return rng.integers(lo, hi + 1, size=size) / float(denom)


def signed_dyadic(rng, hi: int, size=None, denom: int = 8):
    """Nonzero binary fractions k/denom with 1 <= |k| <= hi.  Nonzero
    coefficients keep the number of monomials, and so the evaluation cost,
    the same for every seed."""
    mag = rng.integers(1, hi + 1, size=size)
    return mag * rng.choice([-1.0, 1.0], size=size) / float(denom)


def num(c: float) -> str:
    return repr(float(c))


def monomial(coeff: float, exps) -> str:
    factors = [num(coeff)]
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    return " ".join(factors)


def quadratic_strings(const: float, lin, Q) -> list[str]:
    """Monomials of const + lin.x + x^T Q x for symmetric Q."""
    n = len(lin)
    out = []
    if const != 0.0:
        out.append(num(const))
    for i in range(n):
        if lin[i] != 0.0:
            out.append(monomial(lin[i], [1 if k == i else 0 for k in range(n)]))
    for i in range(n):
        for j in range(i, n):
            c = Q[i, i] if i == j else 2.0 * Q[i, j]
            if c != 0.0:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                out.append(monomial(c, exps))
    return out


def quadratic_map(rng, x, J, quad_scale: int) -> tuple[list, list]:
    """Components F_i(x') = c_i + a_i.x' + x'^T B_i x' with F(x) = 0 and
    dF(x) = J.  Returns (monomial strings per component, Hessians 2 B_i)."""
    m, n = J.shape
    comps, hessians = [], []
    for i in range(m):
        B = signed_dyadic(rng, quad_scale, (n, n), 16)
        B = np.triu(B) + np.triu(B, 1).T
        a = J[i] - 2.0 * B @ x
        c = -(a @ x + x @ B @ x)
        comps.append(quadratic_strings(c, a, B))
        hessians.append(2.0 * B)
    return comps, hessians


def svec(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    return np.array([A[i, j] if i == j else SQRT2 * A[i, j] for i in range(n) for j in range(i + 1)])


def smat(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = int(round((math.sqrt(8 * v.shape[0] + 1) - 1) / 2))
    A = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            A[i, j] = A[j, i] = v[k] if i == j else v[k] / SQRT2
            k += 1
    return A


def dir_arg(w) -> str:
    return "--dir=" + ",".join(num(c) for c in w)


def pow2_ceil(x: float) -> float:
    return float(2.0 ** math.ceil(math.log2(max(x, 1e-300))))


# -- spectral-oracle ---------------------------------------------------------------


def spectral_problem(rng, pid: str, tag: str) -> Problem:
    """ind_negsemidef or max_eig on S^2 under a near-identity linear map
    R^3 -> svec(S^2).  The base matrix has a simple zero (resp. simple top)
    eigenvalue in a random eigenbasis; v is the pullback of a random normal
    cone element (resp. the unique subgradient)."""
    theta = rng.uniform(0.0, math.pi)
    Q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    q0, q1 = Q[:, 0], Q[:, 1]
    if tag == "ind_negsemidef":
        lam = rng.uniform(0.5, 2.0)
        A = -lam * np.outer(q1, q1)
        Y = rng.uniform(0.5, 2.0) * np.outer(q0, q0)
        ell = 0.0
    else:
        top = rng.uniform(-1.0, 1.0)
        A = top * np.outer(q0, q0) + (top - rng.uniform(0.5, 2.0)) * np.outer(q1, q1)
        Y = np.outer(q0, q0)
        ell = 1.0
    M = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    x = rng.uniform(-1.0, 1.0, 3)
    c = svec(A) - M @ x
    F = [[monomial(M[i, k], [1 if j == k else 0 for j in range(3)]) for k in range(3)] + [num(c[i])]
         for i in range(3)]
    v = M.T @ svec(Y)
    dirs = []
    for _ in range(SPECTRAL_DIRS):
        if tag == "ind_negsemidef":
            a, b = rng.standard_normal(2)
            U = a * (np.outer(q0, q1) + np.outer(q1, q0)) + b * np.outer(q1, q1)
        else:
            a, b, d = rng.standard_normal(3)
            U = a * np.outer(q0, q0) + b * (np.outer(q0, q1) + np.outer(q1, q0)) + d * np.outer(q1, q1)
        w = np.linalg.solve(M, svec(U))
        dirs.append(w / np.linalg.norm(w))
    data = {
        "phi": [],
        "F": F,
        "g": {"tag": tag, "n": 2},
        "x": [float(t) for t in x],
        "v": [float(t) for t in v],
        "kappa": 1.0,
        "seed": int(rng.integers(1, 2**31)),
    }
    extra = [dir_arg(w) for w in dirs]
    return Problem(
        pid, tag, data, [("analyze", extra), ("verify", extra)],
        expect={"tag": tag, "M": M, "A": A, "Y": Y, "kappa": 1.0, "ell": ell, "v": v},
        m=3,
    )


def spectral_reference(expect: dict, w) -> float:
    """Closed-form second subderivative under a linear map, from numpy alone:
    -2<V, W A^+ W> for the semidefinite cone, 2<V, W (lam1 I - A)^+ W> for
    max_eig."""
    W = smat(expect["M"] @ np.asarray(w, dtype=float))
    A, V = expect["A"], expect["Y"]
    if expect["tag"] == "ind_negsemidef":
        return -2.0 * float(np.tensordot(V, W @ np.linalg.pinv(A, rcond=1e-10) @ W))
    lam1 = float(np.linalg.eigvalsh(A)[-1])
    shifted = lam1 * np.eye(A.shape[0]) - A
    return 2.0 * float(np.tensordot(V, W @ np.linalg.pinv(shifted, rcond=1e-10) @ W))


# -- polyhedral-scaling ---------------------------------------------------------------


def polyhedral_problem(rng, pid: str, tag: str, n: int, m: int) -> Problem:
    """Every one of the m constraints is active at x; F is linear plus random
    quadratic terms.  The composed Jacobian K = G dF(x) has a negative first
    column, so MFCQ holds along e1 and every multiplier has |lambda|_1 <=
    |v_1| / r_min: the given kappa makes the tau box contain the whole
    multiplier set."""
    x = signed_dyadic(rng, 8, n, 8)
    r = dyadic(rng, 4, 8, m, 8)  # -K e1, in [1/2, 1]
    K = signed_dyadic(rng, 8, (m, n), 8)
    K[:, 0] = -r
    lam0 = dyadic(rng, 1, 8, m, 8)
    if tag == "ind_nonpos":
        G = np.eye(m)
        J = K
        zbar = np.zeros(m)
        g = {"tag": "ind_nonpos", "dim": m}
    else:
        G = np.eye(m) + signed_dyadic(rng, 1, (m, m), 16)  # strictly diagonally dominant
        J = np.linalg.solve(G, K)
        zbar = signed_dyadic(rng, 8, m, 8)
        g = {"tag": "ind_polyhedron", "dim": m, "G": G.tolist(), "h": (G @ zbar).tolist()}
    comps, _ = quadratic_map(rng, x, J, 4)
    if tag != "ind_nonpos":
        comps = [[num(zbar[i])] + comps[i] for i in range(m)]
    y0 = G.T @ lam0
    v = J.T @ y0
    kappa = pow2_ceil(float(np.abs(G).max()) / float(r.min()))
    data = {
        "phi": [],
        "F": comps,
        "g": g,
        "x": [float(t) for t in x],
        "v": [float(t) for t in v],
        "kappa": kappa,
        "seed": int(rng.integers(1, 2**31)),
    }
    return Problem(
        pid, f"{tag}-m{m}", data, [("analyze", [])],
        expect={"G": G, "J": J, "v": v, "kappa": kappa, "ell": 0.0},
        m=m,
    )


# -- certify-smooth -----------------------------------------------------------------


def certify_problem(rng, pid: str, n: int, m: int) -> Problem:
    """phi quadratic, F quadratic into the nonpositive orthant with all m
    constraints active, v = -grad phi(x) = dF(x)^T y with y > 0, and a
    Lagrangian Hessian positive definite on the critical cone ker dF(x).  The
    constraint normals are orthogonal with random lengths in [1/2, 3/2]
    (LICQ, and the linearized feasible cone is the same fraction 2^-m of
    every ball).  No kappa, so the CLI runs its MSCQ scan."""
    x = signed_dyadic(rng, 8, n, 8)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    J = Q[:m] * rng.uniform(0.5, 1.5, (m, 1))
    comps, hessians = quadratic_map(rng, x, J, 2)
    y = dyadic(rng, 2, 8, m, 8)
    R = signed_dyadic(rng, 8, (n, n), 8)
    R = np.triu(R) + np.triu(R, 1).T
    L = R + sum(y[i] * hessians[i] for i in range(m))
    Vt = np.linalg.svd(J)[2]
    Z = Vt[m:].T  # orthonormal basis of ker J
    low = float(np.linalg.eigvalsh(Z.T @ L @ Z).min())
    P = R + np.eye(n) * (math.ceil(max(0.0, 0.5 - low) * 4.0) / 4.0)
    v = J.T @ y
    grad_lin = -v - P @ x  # grad phi(x) = P x + grad_lin = -v
    phi = quadratic_strings(0.0, grad_lin, 0.5 * P)
    data = {
        "phi": phi,
        "F": comps,
        "g": {"tag": "ind_nonpos", "dim": m},
        "x": [float(t) for t in x],
        "seed": int(rng.integers(1, 2**31)),
    }
    return Problem(pid, f"n{n}-m{m}", data, [("certify", []), ("check-cq", [])], expect={}, m=m)


# -- rounds --------------------------------------------------------------------------


def round_problems(workload: str, seed: int, r: int) -> list[Problem]:
    """Round r of the workload's stream for this seed."""
    rng = np.random.default_rng([seed, r])
    base = f"{workload}/s{seed}/r{r}"
    if workload == "spectral-oracle":
        return [spectral_problem(rng, f"{base}/{tag}", tag) for tag in ("ind_negsemidef", "max_eig")]
    if workload == "polyhedral-scaling":
        return [
            polyhedral_problem(rng, f"{base}/{tag}-m{m}", tag, n, m)
            for m in POLY_M
            for tag, n in POLY_SHAPES
        ]
    if workload == "certify-smooth":
        return [certify_problem(rng, f"{base}/n{n}-m{m}", n, m) for n, m in CERTIFY_SHAPES]
    raise ValueError(f"unknown workload {workload!r}")
