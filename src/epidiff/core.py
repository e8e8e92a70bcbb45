"""Polynomial maps with exact derivatives, grid schedules, and the composite
problem container.

Smooth data (phi and F) are restricted to polynomial maps so Jacobians and
Hessians are exact: no automatic differentiation or finite-difference error
enters the verification chain on the smooth side.

A ``PolyMap`` is compiled on first use into arrays (coefficient, exponent
row and owning output of every monomial, in monomial order), and so are its
first and second partials, once each.  One evaluator serves values, stacks
of points, batches, Jacobians and Hessians: a point is a stack of one row,
and every stack gets one power table, each x_i ** k taken by numpy's array
power over all points at once.  Each row of a stack is therefore bit for
bit the value at that point alone, and the table is summed a block of
points at a time, so no temporary grows with the stack.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError

MAX_DEGREE = 6
# The levels of a GridSchedule: its finest ones, all that the oracle searches
# and folds.
STABLE_LEVELS = 3

# A monomial is (coefficient, exponents) with exponents a tuple of length n_in.
Monomial = tuple[float, tuple[int, ...]]


def _merge(monomials: Sequence[Monomial], n_in: int) -> list[Monomial]:
    """Validated monomials, like terms added up, sorted by exponents, zeros dropped."""
    acc: dict[tuple[int, ...], float] = {}
    for coeff, exps in monomials:
        exps = tuple(int(e) for e in exps)
        if len(exps) != n_in:
            raise DimensionMismatch("monomial exponent length != n_in")
        if any(e < 0 for e in exps):
            raise ValidationError("negative exponent in monomial")
        if sum(exps) > MAX_DEGREE:
            raise ValidationError(f"monomial degree exceeds {MAX_DEGREE}")
        acc[exps] = acc.get(exps, 0.0) + float(coeff)
    return [(c, e) for e, c in sorted(acc.items()) if c != 0.0]


# A stack is evaluated a block of points at a time, sized so that each
# (slots x points) temporary holds at most about this many floats: larger
# temporaries made batches of thousands of points slower than a
# per-monomial loop over all of them.
_BLOCK_FLOATS = 2 ** 14


class _Compiled:
    """A polynomial map as arrays: the coefficient, exponent row and owning
    output (0..size-1) of every monomial, in monomial order.

    For evaluation the monomials sit in ``width`` slots per output, slot
    major: the k-th monomial of output o is slot k * size + o, and the slots
    left over hold a zero coefficient (``slot_coeffs``, a column).  A power
    table holds 1.0, then x_i ** k for i = 1..n_in, k = 1..degree.
    ``factors[f][s]`` is the f-th table entry that slot s multiplies by: the
    entries of its nonzero exponents, which grow with i and so keep variable
    order, after as many 0s (the 1.0) as it has fewer of them than the slot
    with the most."""

    def __init__(self, n_in: int, size: int, coeffs, exps, owner):
        self.n_in, self.size = n_in, size
        self.coeffs, self.exps, self.owner = coeffs, exps, owner
        self.degree = int(exps.max(initial=0))
        counts = np.bincount(owner, minlength=size)
        self.width = int(counts.max(initial=0))
        order = np.argsort(owner, kind="stable")
        rows = owner[order]
        slots = (np.arange(owner.size) - (np.cumsum(counts) - counts)[rows]) * size + rows
        self.slot_coeffs = np.zeros((self.width * size, 1))
        self.slot_coeffs[slots, 0] = coeffs[order]
        entries = np.where(exps > 0, np.arange(n_in) * self.degree + exps, 0)
        entries = np.sort(np.pad(entries, ((0, 0), (1, 0))), axis=1)  # a 0 even when n_in = 0
        used = max(1, int(np.count_nonzero(exps, axis=1).max(initial=0)))
        factors = np.zeros((self.width * size, used), dtype=np.intp)
        factors[slots] = entries[order, n_in + 1 - used:]
        self.factors = list(factors.T)

    @functools.cached_property
    def derivative(self) -> "_Compiled":
        """All first partials, output o * n_in + i being d(output o)/dx_i: monomial
        m gives coeff_m * e_mi and e_mi - 1, each output in monomial order."""
        m, i = np.nonzero(self.exps)
        exps = self.exps[m]
        exps[np.arange(m.size), i] -= 1
        return _Compiled(self.n_in, self.size * self.n_in, self.coeffs[m] * self.exps[m, i],
                         exps, self.owner[m] * self.n_in + i)


class PolyMap:
    """A polynomial map R^n_in -> R^n_out stored monomial by monomial."""

    def __init__(self, n_in: int, components: Sequence[Sequence[Monomial]]):
        self.n_in = int(n_in)
        self.n_out = len(components)
        self.components: list[list[Monomial]] = [_merge(comp, self.n_in) for comp in components]

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

    @functools.cached_property
    def _compiled(self) -> _Compiled:
        monos = [mono for comp in self.components for mono in comp]
        return _Compiled(
            self.n_in, self.n_out,
            np.array([c for c, _ in monos], dtype=float),
            np.array([e for _, e in monos], dtype=np.intp).reshape(len(monos), self.n_in),
            np.repeat(np.arange(self.n_out), [len(comp) for comp in self.components]),
        )

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


def _evaluate(c: _Compiled, table: np.ndarray) -> np.ndarray:
    """Every output of c from a power table whose columns are points: shape
    (size, N).

    Each term is coeff * x_1^e_1 * ... * x_n^e_n over the nonzero exponents,
    multiplied left to right (the first factors gathered, then the
    coefficients and each further factor multiplied in place), and each
    output starts from 0.0 and adds its terms in monomial order, a contiguous
    (size, N) block of k-th terms at a time; adding the zero slots after them
    changes no sum."""
    terms = table[c.factors[0]]
    terms *= c.slot_coeffs
    for entries in c.factors[1:]:
        terms *= table[entries]
    terms = terms.reshape(c.width, c.size, table.shape[1])
    out = np.zeros((c.size, table.shape[1]))
    for k in range(c.width):
        out += terms[k]
    return out


def _at_point(p: PolyMap, c: _Compiled, x) -> np.ndarray:
    """c, p's map or one of its partial maps, at the point x: shape (size,);
    or at every row of a (k, n_in) stack of points: shape (k, size), C order.
    A point is a stack of one row, so each row is bit for bit the value at
    that point alone."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (p.n_in,) or x.ndim > 2:
        raise DimensionMismatch(f"expected point in R^{p.n_in}")
    X = np.atleast_2d(x)
    table = np.ones((1 + c.n_in * c.degree, len(X)))
    powers = table[1:].reshape(c.n_in, c.degree, len(X))
    for k in range(1, c.degree + 1):
        powers[:, k - 1] = X.T ** k
    step = _BLOCK_FLOATS // max(1, c.size * c.width) + 1
    out = np.empty((len(X), c.size))
    for s in range(0, len(X), step):
        out[s:s + step] = _evaluate(c, table[:, s:s + step]).T
    return out if x.ndim == 2 else out[0]


def poly_eval(p: PolyMap, x) -> np.ndarray:
    """p at a point, shape (n_out,), or at each row of a stack of points,
    shape (k, n_out)."""
    return _at_point(p, p._compiled, x)


def poly_eval_batch(p: PolyMap, X: np.ndarray) -> np.ndarray:
    """poly_eval on a batch of points, shape (N, n_in) -> (N, n_out)."""
    return _at_point(p, p._compiled, np.atleast_2d(X))


def jacobian(p: PolyMap, x) -> np.ndarray:
    """Exact Jacobian, shape (n_out, n_in), or (k, n_out, n_in) at each row
    of a stack of points."""
    J = _at_point(p, p._compiled.derivative, x)
    return J.reshape(J.shape[:-1] + (p.n_out, p.n_in))


def gradient(p: PolyMap, x) -> np.ndarray:
    return jacobian(p.scalar(), x)[0]


def _hessians(p: PolyMap, x) -> np.ndarray:
    """Exact Hessians of all components, shape (n_out, n_in, n_in)."""
    H = _at_point(p, p._compiled.derivative.derivative, x)
    H = H.reshape(p.n_out, p.n_in, p.n_in)
    return 0.5 * (H + H.transpose(0, 2, 1))


def component_hessian(p: PolyMap, x, j: int) -> np.ndarray:
    """Exact Hessian of component j, shape (n_in, n_in)."""
    return _hessians(p, x)[j]


def hessian(p: PolyMap, x) -> np.ndarray:
    return component_hessian(p.scalar(), x, 0)


def second_form(p: PolyMap, x, w) -> np.ndarray:
    """The vector of bilinear forms (w^T Hess p_j(x) w), one per output."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p.n_in,):
        raise DimensionMismatch(f"expected direction in R^{p.n_in}")
    return np.array([w @ H @ w for H in _hessians(p, x)])


@dataclass(frozen=True)
class GridSchedule:
    """Geometric step schedule and matching search-ball rule for the oracle.

    The levels are the STABLE_LEVELS finest steps t0 * ratio**k of a ladder
    of `steps`, k = steps - STABLE_LEVELS, ..., steps - 1.  The search ball
    around a direction has radius radius_coeff * t**radius_exponent.
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
        if not (np.isfinite(self.t0) and self.t0 > 0):
            raise ValidationError("t0 must be finite and positive")
        if not 0 < self.ratio < 1:
            raise ValidationError("ratio must lie in (0, 1)")
        if self.steps < STABLE_LEVELS:
            raise ValidationError(f"steps must be at least {STABLE_LEVELS}")
        if not (np.isfinite(self.radius_coeff) and self.radius_coeff >= 0):
            raise ValidationError("radius_coeff must be finite and nonnegative")
        if self.samples_per_axis < 2:
            raise ValidationError("samples_per_axis must be at least 2")
        if not (np.isfinite(self.radius_exponent) and self.radius_exponent > 0):
            raise ValidationError("radius_exponent must be finite and positive")
        t_min = self.t0 * self.ratio ** (self.steps - 1)
        if not 0.5 * t_min * t_min > 0:
            raise ValidationError("steps: t0 * ratio^(steps - 1) underflows in t^2 / 2")

    def t_levels(self) -> list[float]:
        """The STABLE_LEVELS finest levels, coarsest first."""
        return [self.t0 * self.ratio ** k for k in range(self.steps - STABLE_LEVELS, self.steps)]

    def radius(self, t: float) -> float:
        return self.radius_coeff * t ** self.radius_exponent


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

    def __repr__(self):
        return f"CompositeProblem(n={self.n}, m={self.m}, g={self.g!r})"
