"""The composite calculus: multiplier sets, constraint-qualification checks,
chain rules for first- and second-order objects, and the primal/dual pair
whose common value is the second subderivative of g(F(.)).

The dual side maximizes <y, d2F(w,w)> + d2g(F(x), y)(dF(x) w) over the
multiplier set truncated to the tau-ball box; the primal side minimizes the
parabolic chain value minus <z, v>.  This module does the problem-level work.
``multipliers`` evaluates one base point (x, v) once: its ``MultiplierSet``
is the per-point record that carries z = F(x), J = dF(x), the multipliers
that the subdifferential's representation builds, and the critical cone
that the outer cone pulls back under J.  Every chain-rule function reads the
base point from that record and adds only the per-direction work; no
function here asks which representation it holds.  Each catalog member
answers for its own pieces of the chain rule (``dual_value``,
``primal_value``, ``basic_cq`` of ``OuterFunction``): exact LPs for
polyhedral data, a conjugate value at the multiplier for the spectral
members, and closed forms for smooth data.  Every primal value is a closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import CompositeProblem, jacobian, poly_eval, second_form
from .errors import BasePointInfeasible, EmptyMultiplierSet, PointNotInDomain
from .extreal import CAP, PLUS_INF, ExtReal
from .numkit import Polyhedron, ball_steps, intersect, min_norm_point, operator_norm, row_norms
from .oracle import SampledFunction
from .outer import OuterFunction, SubdiffRepr


@dataclass
class MultiplierSet:
    """The first-order record of one base point (x, v): z = F(x), J = dF(x)
    and the Lagrange multipliers {y : adj(J) y = v, y in subdiff g(z)},
    truncated to the tau-ball box before vertex enumeration.  ``subdiff``
    is the subdifferential of g at z that built them.  ``vertices`` are all
    the vertices of ``polyhedron``, before ``multipliers`` keeps those that
    pass the affine and membership checks.  ``cone`` is the pulled-back
    critical cone, worked out on first use from ``subdiff`` and kept."""

    g: OuterFunction
    z: np.ndarray
    J: np.ndarray
    tau: float
    subdiff: SubdiffRepr
    multipliers: list
    polyhedron: Polyhedron | None = None
    tau_enlargements: int = 0
    vertices: list = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.multipliers

    def first(self) -> np.ndarray:
        if self.is_empty:
            raise EmptyMultiplierSet("no Lagrange multipliers")
        return self.multipliers[0]

    @cached_property
    def cone(self):
        """Pullback of the outer critical cone under J; the outer cone is the
        same for every multiplier, so the first one is used."""
        if self.is_empty:
            raise EmptyMultiplierSet("v is not a subgradient of g(F(.)) at x")
        return self.g.critical_cone(self.z, self.first(), self.subdiff).pullback(self.J)

    def ball_argmax(self, H, argmax):
        """The dual maximum of <y, H> is attained inside the Euclidean
        tau-ball; if the lexicographic LP vertex lies outside, swap in the
        minimum-norm point of the optimal face (same value)."""
        if argmax is None or self.polyhedron is None:
            return argmax
        if float(np.linalg.norm(argmax)) <= self.tau + 1e-8:
            return argmax
        face = intersect(
            self.polyhedron,
            Polyhedron.make(self.polyhedron.dim, E=H.reshape(1, -1), d=np.array([float(H @ argmax)])),
        )
        near = min_norm_point(face)
        if near is not None and float(np.linalg.norm(near)) <= self.tau + 1e-8:
            return near
        return argmax


@dataclass
class MSCQResult:
    holds_evidence: bool
    kappa_hat: float
    worst_point: np.ndarray | None
    samples: int
    ratios_by_radius: list = field(default_factory=list)


@dataclass
class DualityInfo:
    primal_value: ExtReal
    dual_value: ExtReal
    argmax_y: np.ndarray | None
    tau: float
    gap: float


# -- basic data ------------------------------------------------------------------


def _base_point(prob: CompositeProblem, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(z, g(z)) for z = F(x), which must lie in dom g."""
    z = poly_eval(prob.F, x)
    gz = prob.g.value(z)
    if not gz.is_finite:
        raise BasePointInfeasible("F(x) lies outside dom g")
    return z, gz.value


def tau_bound(J, v, kappa: float, ell: float) -> float:
    """kappa * ell * |dF(x)| + kappa * |v| + ell for J = dF(x).  The operator
    norm (via sym_eig) is computed only when kappa * ell > 0; when it is zero,
    as for every indicator (ell = 0), the first term is that zero itself."""
    if kappa < 0 or ell < 0:
        raise ValueError("kappa and ell must be nonnegative")
    scale = kappa * ell
    first = scale * operator_norm(J) if scale else scale
    return first + kappa * float(np.linalg.norm(v)) + ell


def multipliers(
    prob: CompositeProblem, x, v, kappa: float = 1.0, ell: float | None = None
) -> MultiplierSet:
    """The record of the base point (x, v): F(x), dF(x) and the multiplier
    set, which the representation of the subdifferential materializes
    (``multiplier_set``): tau-box-truncated vertices of a polyhedron, the
    unique candidate of a spectral set or a singleton."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    z, _ = _base_point(prob, x)
    J = jacobian(prob.F, x)
    if ell is None:
        ell = prob.g.lipschitz_bound(z)
    tau = tau_bound(J, v, kappa, ell)
    rep = prob.g.subdifferential(z)
    return MultiplierSet(prob.g, z, J, tau, rep, **rep.multiplier_set(J, v, tau))


# -- constraint qualifications ------------------------------------------------------


def _restore_feasible_points(prob: CompositeProblem, X, max_iter: int = 60):
    """Gauss-Newton restoration of F(x) into dom g from every row x0 of a
    stack, in one batch per step: (Y, ok, U), with Y[i] a feasible point
    close to X[i] and U[i] = F(Y[i]), the value its last step measured, where
    ok[i], else X[i] itself and NaN.  A row fails when its iteration stalls
    infeasibly or dom g cannot be projected onto (it is empty).

    Every row runs the steps it would run alone, bit for bit: F, dF and the
    projection of a stack equal theirs at each point, and so do stacked
    matmul, solve and row norms; a singular J J^T falls back to least
    squares for its own row only."""
    X = np.array(X, dtype=float)
    Y, ok = X.copy(), np.zeros(len(X), dtype=bool)
    U = np.full((len(X), prob.F.n_out), math.nan)
    live, x, last = np.arange(len(X)), X, []
    for _ in range(max_iter):
        u = poly_eval(prob.F, x)
        p, projected = _rowwise(prob.g.domain_project, u, u.shape)
        near = projected & (row_norms(u - p) <= 1e-12 * (1.0 + row_norms(u)))
        go = projected & ~near
        if not go.all():
            Y[live[near]], U[live[near]], ok[live[near]] = x[near], u[near], True
            live, x, u, p = live[go], x[go], u[go], p[go]
            if not live.size:
                break
        J = jacobian(prob.F, x)
        Jt = J.swapaxes(1, 2)
        step = (Jt @ _solve_rows(J @ Jt, p - u)[:, :, None])[:, :, 0]
        moving = (row_norms(step) >= 1e-15) & np.isfinite(step).all(axis=1)
        if not moving.all():
            Y[live[~moving]] = x[~moving]
            last.append(live[~moving])
            live, x, step = live[moving], x[moving], step[moving]
        x = x + step
    Y[live] = x
    last = np.concatenate(last + [live])
    if last.size:
        u = U[last] = poly_eval(prob.F, Y[last])
        dist, measured = _rowwise(prob.g.domain_distance, u, last.shape)
        ok[last] = measured & (dist <= 1e-9 * (1.0 + row_norms(u)))
    Y[~ok], U[~ok] = X[~ok], math.nan
    return Y, ok, U


def _restore_feasible_point(prob: CompositeProblem, x0: np.ndarray, max_iter: int = 60):
    """The restoration of one point: a feasible point close to x0, or None."""
    Y, ok, _ = _restore_feasible_points(prob, np.asarray(x0, dtype=float)[None], max_iter)
    return Y[0] if ok[0] else None


def _rowwise(fn, U: np.ndarray, shape):
    """(fn(U), ok) for a stack U and a member map fn that raises
    PointNotInDomain: when the stack raises, fn of each row alone, and ok
    marks the rows that did not raise (True when none did).  shape is that
    of fn(U); the rows that raised hold NaN."""
    try:
        return fn(U), True
    except PointNotInDomain:
        out, ok = np.full(shape, math.nan), np.ones(len(U), dtype=bool)
        for i in range(len(U)):
            try:
                out[i] = fn(U[i:i + 1])[0]
            except PointNotInDomain:
                ok[i] = False
        return out, ok


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of A[i] x = b[i] for every row of a stack; a stack that
    holds a singular A[i] is solved row by row, with least squares for each
    singular row."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for i, (Ai, bi) in enumerate(zip(A, b)):
            try:
                out[i] = np.linalg.solve(Ai, bi)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(Ai, bi, rcond=None)[0]
        return out


def check_mscq(prob: CompositeProblem, x, n_samples: int, radius: float, seed: int) -> MSCQResult:
    """Empirical metric-subregularity modulus: the ratio of the distance to the
    feasible set over the image distance to dom g, scanned over shrinking
    sample balls.  A growth trend across the refinements is failure evidence.

    The samples do not depend on what restoration makes of them: all are
    drawn first, one ball radius at a time, the infeasible ones are restored
    in one stack, and the modulus and shell maxima are read off the stack."""
    x = np.asarray(x, dtype=float)
    _base_point(prob, x)
    rng = np.random.default_rng(seed)
    counts = [n_samples // 3 + (level < n_samples % 3) for level in range(3)]
    steps = np.vstack([ball_steps(rng, c, prob.n, radius / 2.0 ** level, 1.0) for level, c in enumerate(counts)])
    XP = x + steps
    dist_g = prob.g.domain_distance(poly_eval(prob.F, XP))
    off = np.flatnonzero(dist_g > 1e-12)
    restored, ok, _ = _restore_feasible_points(prob, XP[off])
    dist_f = np.full(len(off), math.inf)
    dist_f[ok] = row_norms(restored[ok] - XP[off[ok]])
    ratios = dist_f / dist_g[off]
    # the first largest ratio, NaN skipped, as a running ratio > kappa_hat picks it
    kappa_hat, worst = 0.0, None
    ranked = np.fmax(ratios, 0.0)
    if ranked.max(initial=0.0) > 0:
        best = int(np.argmax(ranked))
        kappa_hat, worst = float(ranked[best]), XP[off[best]]
    # bucket by distance to the base point: a modulus that keeps growing on
    # inner shells is divergence evidence (the ratio must stay bounded near x)
    dist = row_norms(steps[off])
    shells = [ratios[(radius * 0.5 ** (k + 1) < dist) & (dist <= radius * 0.5 ** k)] for k in range(5)]
    shell_max = [float(vals.max()) if len(vals) else None for vals in shells]
    trend = [m for m in shell_max if m is not None]
    growing = any(not math.isfinite(m) for m in trend) or (
        len(trend) >= 3 and all(trend[i + 1] >= 1.4 * trend[i] for i in range(len(trend) - 1))
    )
    return MSCQResult(
        holds_evidence=not growing,
        kappa_hat=kappa_hat,
        worst_point=worst,
        samples=len(steps),
        ratios_by_radius=[m if m is not None else 0.0 for m in shell_max],
    )


def check_basic_cq(prob: CompositeProblem, x) -> bool:
    """Whether N_dom g(F(x)) meets ker adj(dF(x)) only at the origin."""
    x = np.asarray(x, dtype=float)
    return prob.g.basic_cq(_base_point(prob, x)[0], jacobian(prob.F, x))


# -- chain rules ----------------------------------------------------------------------


def subderivative_chain(prob: CompositeProblem, x, w) -> ExtReal:
    """d g(F(x)) at dF(x) w."""
    x = np.asarray(x, dtype=float)
    z, _ = _base_point(prob, x)
    return prob.g.subderivative(z, jacobian(prob.F, x) @ np.asarray(w, dtype=float))


def critical_cone(prob: CompositeProblem, x, v, multys: MultiplierSet | None = None):
    """Pullback of the outer critical cone under dF(x): the cone the
    multiplier set of (x, v) keeps."""
    if multys is None:
        multys = multipliers(prob, x, v)
    return multys.cone


def parabolic_chain(prob: CompositeProblem, x, w, z) -> ExtReal:
    """d2 g(F(x)) (dF(x) w | dF(x) z + d2F(x)(w, w))."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    zbar = poly_eval(prob.F, x)
    J = jacobian(prob.F, x)
    inner = J @ z + second_form(prob.F, x, w)
    return prob.g.parabolic_subderivative(zbar, J @ w, inner)


# -- the dual side -----------------------------------------------------------------------


def chain_dual_value(
    prob: CompositeProblem, x, v, w, multys: MultiplierSet
) -> tuple[ExtReal, np.ndarray | None]:
    """The dual-side maximum alone: max over the multiplier set of
    <y, d2F(x)(w,w)> + d2g(F(x), y)(dF(x) w), PlusInf off the critical cone."""
    w = np.asarray(w, dtype=float)
    if not multys.cone.contains(w):
        return PLUS_INF, None
    H = second_form(prob.F, np.asarray(x, dtype=float), w)
    return prob.g.dual_value(multys.z, multys.J @ w, H, multys)


def second_subderivative_chain(
    prob: CompositeProblem,
    x,
    v,
    w,
    kappa: float = 1.0,
    ell: float | None = None,
    multys: MultiplierSet | None = None,
) -> DualityInfo:
    """The second subderivative of g(F(.)) at x for v along w, as the maximum
    over multipliers, together with the primal minimization value; both
    sides share dF(x) w and d2F(x)(w, w)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if multys is None:
        multys = multipliers(prob, x, v, kappa=kappa, ell=ell)
    if not multys.cone.contains(w):
        return DualityInfo(PLUS_INF, PLUS_INF, None, multys.tau, 0.0)
    u, H = multys.J @ w, second_form(prob.F, x, w)
    dual_val, argmax = prob.g.dual_value(multys.z, u, H, multys)
    primal_val, _ = _primal_value(prob, v, u, H, multys)
    if primal_val.is_finite and dual_val.is_finite:
        gap = abs(primal_val.value - dual_val.value)
    elif primal_val.is_plus_inf and dual_val.is_plus_inf:
        gap = 0.0
    else:
        gap = math.inf
    return DualityInfo(primal_val, dual_val, argmax, multys.tau, gap)


# -- the primal side ------------------------------------------------------------------------


def _primal_value(prob: CompositeProblem, v, u, H, multys: MultiplierSet) -> tuple[ExtReal, bool]:
    """The primal value for u = dF(x) w, H = d2F(x)(w, w) with w on the
    critical cone, paired with True (every member's primal value is exact),
    the shape that tracing tools read."""
    return prob.g.primal_value(multys.z, multys.J, u, H, v), True


# -- sampled assembly --------------------------------------------------------------------------


def outer_values(prob: CompositeProblem, X) -> np.ndarray:
    """g(F(x)) at each row of a stack of points, each row bit for bit
    g.value(F(x)).as_float(), which is F(x)'s stack of one row: finite
    values above the ExtReal cap read +inf, as they do in an ExtReal."""
    return _outer_at(prob, poly_eval(prob.F, X))


def _outer_at(prob: CompositeProblem, U) -> np.ndarray:
    """outer_values at the points where F takes the values of the stack U."""
    vals = prob.g.value_batch(U)
    return np.where(vals > CAP, math.inf, vals)


def sampled_objective(prob: CompositeProblem, include_phi: bool = False) -> SampledFunction:
    """g(F(.)) (optionally plus phi) as an oracle-ready sampled function with a
    stack evaluator and a Gauss-Newton feasibility restorer."""

    def ev(X: np.ndarray) -> np.ndarray:
        vals = outer_values(prob, X)
        if include_phi:
            vals = vals + poly_eval(prob.phi, X)[:, 0]
        return vals

    def restore(X: np.ndarray) -> np.ndarray:
        return _restore_feasible_points(prob, X, max_iter=20)[0]

    name = "phi + g(F(.))" if include_phi else "g(F(.))"
    return SampledFunction(
        evaluator=ev,
        dim=prob.n,
        description=name,
        restore_feasible=restore,
    )
