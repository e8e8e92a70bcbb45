"""Polynomial maps with exact derivatives, grid schedules, and the composite
problem container.

Smooth data (phi and F) are restricted to polynomial maps so Jacobians and
Hessians are exact: no automatic differentiation or finite-difference error
enters the verification chain on the smooth side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError

MAX_DEGREE = 6

# A monomial is (coefficient, exponents) with exponents a tuple of length n_in.
Monomial = tuple[float, tuple[int, ...]]


def _merge(monomials: Sequence[Monomial]) -> list[Monomial]:
    acc: dict[tuple[int, ...], float] = {}
    for coeff, exps in monomials:
        acc[exps] = acc.get(exps, 0.0) + float(coeff)
    return [(c, e) for e, c in sorted(acc.items()) if c != 0.0]


class PolyMap:
    """A polynomial map R^n_in -> R^n_out stored monomial by monomial."""

    def __init__(self, n_in: int, components: Sequence[Sequence[Monomial]]):
        self.n_in = int(n_in)
        self.n_out = len(components)
        comps = []
        for comp in components:
            merged = []
            for coeff, exps in comp:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.n_in:
                    raise DimensionMismatch("monomial exponent length != n_in")
                if any(e < 0 for e in exps):
                    raise ValidationError("negative exponent in monomial")
                if sum(exps) > MAX_DEGREE:
                    raise ValidationError(f"monomial degree exceeds {MAX_DEGREE}")
                merged.append((float(coeff), exps))
            comps.append(_merge(merged))
        self.components: list[list[Monomial]] = comps

    # -- construction helpers --------------------------------------------------

    @staticmethod
    def zero(n_in: int, n_out: int = 1) -> "PolyMap":
        return PolyMap(n_in, [[] for _ in range(n_out)])

    @staticmethod
    def linear(A: np.ndarray) -> "PolyMap":
        A = np.asarray(A, dtype=float)
        comps = []
        for row in A:
            comp = []
            for j, c in enumerate(row):
                if c != 0.0:
                    exps = [0] * A.shape[1]
                    exps[j] = 1
                    comp.append((float(c), tuple(exps)))
            comps.append(comp)
        return PolyMap(A.shape[1], comps)

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap.linear(np.eye(n))

    @staticmethod
    def from_strings(component_strings: Sequence[Sequence[str]], n_in: int) -> "PolyMap":
        comps = [[parse_monomial(s, n_in) for s in comp] for comp in component_strings]
        return PolyMap(n_in, comps)

    def scalar(self) -> "PolyMap":
        if self.n_out != 1:
            raise DimensionMismatch("expected a scalar polynomial map")
        return self

    def __repr__(self):
        return f"PolyMap(n_in={self.n_in}, n_out={self.n_out})"

    # -- evaluation and exact derivatives ---------------------------------------

    def __call__(self, x) -> np.ndarray:
        return poly_eval(self, x)


def parse_monomial(text: str, n_in: int) -> Monomial:
    """Parse ``"3 x1^2 x2"`` style monomials (coefficient then factors)."""
    tokens = text.replace("*", " ").split()
    if not tokens:
        raise ValidationError(f"empty monomial string: {text!r}")
    coeff = 1.0
    start = 0
    if tokens[0].startswith("-x"):
        coeff = -1.0
        tokens[0] = tokens[0][1:]
    elif not tokens[0].startswith("x"):
        try:
            coeff = float(tokens[0])
        except ValueError as exc:
            raise ValidationError(f"bad coefficient in monomial {text!r}") from exc
        if not np.isfinite(coeff):
            raise ValidationError(f"non-finite coefficient in monomial {text!r}")
        start = 1
    exps = [0] * n_in
    for tok in tokens[start:]:
        m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", tok)
        if not m:
            raise ValidationError(f"bad factor {tok!r} in monomial {text!r}")
        idx = int(m.group(1)) - 1
        power = int(m.group(2) or 1)
        if not 0 <= idx < n_in:
            raise ValidationError(f"variable x{idx + 1} out of range in {text!r}")
        exps[idx] += power
    return coeff, tuple(exps)


def poly_eval(p: PolyMap, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n_in,):
        raise DimensionMismatch(f"expected point in R^{p.n_in}")
    out = np.zeros(p.n_out)
    for j, comp in enumerate(p.components):
        s = 0.0
        for coeff, exps in comp:
            term = coeff
            for xi, e in zip(x, exps):
                if e:
                    term *= xi ** e
            s += term
        out[j] = s
    return out


def poly_eval_batch(p: PolyMap, X: np.ndarray) -> np.ndarray:
    """Evaluate on a batch of points, shape (N, n_in) -> (N, n_out)."""
    X = np.asarray(X, dtype=float)
    out = np.zeros((X.shape[0], p.n_out))
    for j, comp in enumerate(p.components):
        for coeff, exps in comp:
            term = np.full(X.shape[0], coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * X[:, i] ** e
            out[:, j] += term
    return out


def _diff_monomial(coeff: float, exps: tuple[int, ...], i: int) -> Monomial | None:
    if exps[i] == 0:
        return None
    new = list(exps)
    new[i] -= 1
    return coeff * exps[i], tuple(new)


def jacobian(p: PolyMap, x) -> np.ndarray:
    """Exact Jacobian, shape (n_out, n_in)."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((p.n_out, p.n_in))
    for j, comp in enumerate(p.components):
        for coeff, exps in comp:
            for i in range(p.n_in):
                d = _diff_monomial(coeff, exps, i)
                if d is None:
                    continue
                c, e = d
                term = c
                for xi, ee in zip(x, e):
                    if ee:
                        term *= xi ** ee
                J[j, i] += term
    return J


def gradient(p: PolyMap, x) -> np.ndarray:
    return jacobian(p.scalar(), x)[0]


def component_hessian(p: PolyMap, x, j: int) -> np.ndarray:
    """Exact Hessian of component j, shape (n_in, n_in)."""
    x = np.asarray(x, dtype=float)
    H = np.zeros((p.n_in, p.n_in))
    for coeff, exps in p.components[j]:
        for a in range(p.n_in):
            d1 = _diff_monomial(coeff, exps, a)
            if d1 is None:
                continue
            c1, e1 = d1
            for b in range(p.n_in):
                d2 = _diff_monomial(c1, e1, b)
                if d2 is None:
                    continue
                c2, e2 = d2
                term = c2
                for xi, ee in zip(x, e2):
                    if ee:
                        term *= xi ** ee
                H[a, b] += term
    return 0.5 * (H + H.T)


def hessian(p: PolyMap, x) -> np.ndarray:
    return component_hessian(p.scalar(), x, 0)


def second_form(p: PolyMap, x, w) -> np.ndarray:
    """The vector of bilinear forms (w^T Hess p_j(x) w), one per output."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p.n_in,):
        raise DimensionMismatch(f"expected direction in R^{p.n_in}")
    return np.array([w @ component_hessian(p, x, j) @ w for j in range(p.n_out)])


@dataclass(frozen=True)
class GridSchedule:
    """Geometric step schedule and matching search-ball rule for the oracle.

    The search ball around a direction has radius radius_coeff * t**radius_exponent.
    The default exponent 1 matches the bounded-ratio recovery regime; a smaller
    exponent widens the search for deliberately irregular functions whose
    recovery sequences need |w_k - w| / t_k unbounded.
    """

    t0: float = 0.1
    ratio: float = 0.5
    steps: int = 10
    radius_coeff: float = 4.0
    samples_per_axis: int = 9
    radius_exponent: float = 1.0
    seed: int = 20240

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValidationError("t0 must be positive")
        if not 0 < self.ratio < 1:
            raise ValidationError("ratio must lie in (0, 1)")
        if self.steps < 3:
            raise ValidationError("steps must be at least 3")
        if self.radius_coeff < 0:
            raise ValidationError("radius_coeff must be nonnegative")
        if self.samples_per_axis < 2:
            raise ValidationError("samples_per_axis must be at least 2")
        if not self.radius_exponent > 0:
            raise ValidationError("radius_exponent must be positive")

    def t_levels(self) -> list[float]:
        return [self.t0 * self.ratio ** k for k in range(self.steps)]

    def radius(self, t: float) -> float:
        return self.radius_coeff * t ** self.radius_exponent

    def coarse(self) -> "GridSchedule":
        """The four finest levels at no more than 7 samples per axis: cheap
        enough to rank many trial points."""
        return replace(
            self,
            t0=self.t0 * self.ratio ** max(0, self.steps - 4),
            steps=4,
            samples_per_axis=min(self.samples_per_axis, 7),
        )


class CompositeProblem:
    """The data (phi, F, g) of a composite objective phi(x) + g(F(x))."""

    def __init__(self, phi: PolyMap, F: PolyMap, g):
        if phi.n_out != 1:
            raise DimensionMismatch("phi must be scalar valued")
        if phi.n_in != F.n_in:
            raise DimensionMismatch("phi and F disagree on the input dimension")
        if F.n_out != g.ambient_dim:
            raise DimensionMismatch(
                f"F maps into R^{F.n_out} but g lives on R^{g.ambient_dim}"
            )
        self.phi = phi
        self.F = F
        self.g = g
        self.n = F.n_in
        self.m = F.n_out

    def check_feasible(self, x) -> bool:
        """Base-point feasibility F(x) in dom g."""
        return self.g.value(poly_eval(self.F, x)).is_finite

    def __repr__(self):
        return f"CompositeProblem(n={self.n}, m={self.m}, g={self.g!r})"
