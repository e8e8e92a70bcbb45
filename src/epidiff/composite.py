"""The composite calculus: multiplier sets, constraint-qualification checks,
chain rules for first- and second-order objects, and the primal/dual pair
whose common value is the second subderivative of g(F(.)).

The dual side maximizes <y, d2F(w,w)> + d2g(F(x), y)(dF(x) w) over the
multiplier set truncated to the tau-ball box; the primal side minimizes the
parabolic chain value minus <z, v>.  This module does the problem-level work.
``multipliers`` evaluates one base point (x, v) once: its ``MultiplierSet``
is the per-point record that carries z = F(x), J = dF(x), the multipliers
built from the shape of the subdifferential, and the critical cone pulled
back under J.  Every chain-rule function reads the base point from that
record and adds only the per-direction work.  Each catalog member answers for
its own pieces of the chain rule (``dual_value``, ``primal_value``,
``basic_cq`` of ``OuterFunction``): exact LPs for polyhedral data, a
conjugate value at the multiplier for the spectral members, and closed forms
for smooth data.  Every primal value is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .core import CompositeProblem, jacobian, poly_eval, poly_eval_batch, second_form
from .errors import (
    BasePointInfeasible,
    CriticalConePreconditionFailed,
    EmptyMultiplierSet,
    PointNotInDomain,
    UnsupportedSpectralMultiplicity,
    UnsupportedTag,
)
from .extreal import PLUS_INF, ExtReal
from .numkit import PolyCone, Polyhedron, box, intersect, min_norm_point, operator_norm, vertices
from .numkit.polyhedra import is_empty
from .oracle import SampledFunction
from .outer import (
    OuterFunction,
    PointRep,
    PolyhedralConeRepr,
    PolyhedronRep,
    PredicateConeRepr,
    SpectralRep,
)

AFFINE_TOL = 1e-8


@dataclass
class MultiplierSet:
    """The first-order record of one base point (x, v): z = F(x), J = dF(x)
    and the Lagrange multipliers {y : adj(J) y = v, y in subdiff g(z)},
    truncated to the tau-ball box before vertex enumeration.  ``vertices``
    are all the vertices of ``polyhedron``, before ``multipliers`` keeps
    those that pass the affine and membership checks.  ``cone`` is the
    pulled-back critical cone, worked out on first use and kept."""

    g: OuterFunction
    z: np.ndarray
    J: np.ndarray
    tau: float
    multipliers: list
    polyhedron: Polyhedron | None = None
    truncated: bool = False
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
        outer_cone = self.g.critical_cone(self.z, self.first())
        J = self.J
        if isinstance(outer_cone, PolyhedralConeRepr):
            K = outer_cone.cone
            return PolyhedralConeRepr(
                PolyCone.make_cone(
                    J.shape[1],
                    K.G @ J if K.n_ineq else None,
                    K.E @ J if K.n_eq else None,
                ),
                description="pullback of the outer critical cone",
            )
        return PredicateConeRepr(
            lambda w: outer_cone.contains(J @ np.asarray(w, dtype=float)),
            description="pullback membership of the outer critical cone",
        )

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
class LipschitzInfo:
    ell: float


@dataclass
class DualityInfo:
    primal_value: ExtReal
    dual_value: ExtReal
    argmax_y: np.ndarray | None
    tau: float
    gap: float
    mscq_provenance: str = "user-asserted"


# -- basic data ------------------------------------------------------------------


def lipschitz_constant(g: OuterFunction, z) -> LipschitzInfo:
    return LipschitzInfo(ell=float(g.lipschitz_bound(np.asarray(z, dtype=float))))


def tau_bound(J, v, kappa: float, ell: float) -> float:
    """kappa * ell * |dF(x)| + kappa * |v| + ell for J = dF(x), operator
    norm via sym_eig."""
    if kappa < 0 or ell < 0:
        raise ValueError("kappa and ell must be nonnegative")
    return kappa * ell * operator_norm(J) + kappa * float(np.linalg.norm(v)) + ell


def multipliers(
    prob: CompositeProblem, x, v, kappa: float = 1.0, ell: float | None = None
) -> MultiplierSet:
    """The record of the base point (x, v): F(x), dF(x) and the multiplier
    set, materialized as tau-box-truncated vertices for polyhedral
    subdifferentials and as the unique candidate for spectral or singleton
    subdifferentials."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    z = poly_eval(prob.F, x)
    if not prob.g.value(z).is_finite:
        raise BasePointInfeasible("F(x) lies outside dom g")
    J = jacobian(prob.F, x)
    if ell is None:
        ell = prob.g.lipschitz_bound(z)
    tau = tau_bound(J, v, kappa, ell)
    make = partial(MultiplierSet, prob.g, z, J, tau)
    rep = prob.g.subdifferential(z)

    def _affine_ok(y) -> bool:
        return float(np.linalg.norm(J.T @ y - v)) <= AFFINE_TOL * (1.0 + np.linalg.norm(v))

    if isinstance(rep, PolyhedronRep):
        core = intersect(
            rep.polyhedron, Polyhedron.make(prob.m, E=J.T, d=v)
        )
        tau_eff, enlargements = max(tau, 1e-6), 0
        for _ in range(6):
            verts = vertices(intersect(core, box(prob.m, tau_eff)))  # [] when empty
            if verts:
                break
            if is_empty(core):
                return make([], None, True)
            tau_eff *= 2.0
            enlargements += 1
        kept = [y for y in verts if _affine_ok(y) and rep.contains(y, 1e-7)]
        return make(kept, intersect(core, box(prob.m, tau_eff)), True, enlargements, verts)

    if isinstance(rep, PointRep):
        y0 = rep.point
        return make([y0] if _affine_ok(y0) else [])

    if isinstance(rep, SpectralRep):
        unique = rep.unique_element()
        if unique is not None:
            return make([unique] if _affine_ok(unique) else [])
        # clustered spectrum: only an injective adjoint pins y
        JT = J.T
        s = np.linalg.svd(JT, compute_uv=False)
        rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 1.0)))
        if rank < prob.m:
            raise UnsupportedSpectralMultiplicity(
                "clustered leading eigenvalue with a non-unique multiplier candidate"
            )
        y, *_ = np.linalg.lstsq(JT, v, rcond=None)
        ok = _affine_ok(y) and rep.contains(y, 1e-7)
        return make([y] if ok else [])

    raise UnsupportedTag(f"unknown subdifferential representation {type(rep).__name__}")


# -- constraint qualifications ------------------------------------------------------


def _restore_feasible_point(prob: CompositeProblem, x0: np.ndarray, max_iter: int = 60):
    """Gauss-Newton restoration of F(x) into dom g; returns a feasible point
    close to x0, or None if the iteration stalls infeasibly or dom g cannot
    be projected onto (it is empty)."""
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        u = poly_eval(prob.F, x)
        try:
            p = np.asarray(prob.g.domain_project(u), dtype=float)
        except PointNotInDomain:
            return None
        r = u - p
        if float(np.linalg.norm(r)) <= 1e-12 * (1.0 + float(np.linalg.norm(u))):
            return x
        J = jacobian(prob.F, x)
        JJt = J @ J.T
        try:
            lam = np.linalg.solve(JJt, p - u)
        except np.linalg.LinAlgError:
            lam = np.linalg.lstsq(JJt, p - u, rcond=None)[0]
        step = J.T @ lam
        if float(np.linalg.norm(step)) < 1e-15 or not np.all(np.isfinite(step)):
            break
        x = x + step
    u = poly_eval(prob.F, x)
    try:
        dist = prob.g.domain_distance(u)
    except PointNotInDomain:
        return None
    if dist <= 1e-9 * (1.0 + float(np.linalg.norm(u))):
        return x
    return None


def check_mscq(
    prob: CompositeProblem, x, n_samples: int = 240, radius: float = 0.25, seed: int = 0
) -> MSCQResult:
    """Empirical metric-subregularity modulus: the ratio of the distance to the
    feasible set over the image distance to dom g, scanned over shrinking
    sample balls.  A growth trend across the refinements is failure evidence."""
    x = np.asarray(x, dtype=float)
    if not prob.check_feasible(x):
        raise BasePointInfeasible("F(x) lies outside dom g")
    rng = np.random.default_rng(seed)
    kappa_hat, worst, total = 0.0, None, 0
    observations: list[tuple[float, float]] = []
    for level, rad in enumerate((radius, radius / 2.0, radius / 4.0)):
        for _ in range(n_samples // 3 + (level < n_samples % 3)):
            step = rng.standard_normal(prob.n)
            step *= rad * rng.random() / max(float(np.linalg.norm(step)), 1e-300)
            xp = x + step
            total += 1
            dist_g = prob.g.domain_distance(poly_eval(prob.F, xp))
            if dist_g <= 1e-12:
                continue
            restored = _restore_feasible_point(prob, xp)
            dist_f = math.inf if restored is None else float(np.linalg.norm(restored - xp))
            ratio = dist_f / dist_g
            observations.append((float(np.linalg.norm(step)), ratio))
            if ratio > kappa_hat:
                kappa_hat, worst = ratio, xp
    # bucket by distance to the base point: a modulus that keeps growing on
    # inner shells is divergence evidence (the ratio must stay bounded near x)
    shell_max = []
    for k in range(5):
        hi, lo = radius * 0.5 ** k, radius * 0.5 ** (k + 1)
        vals = [r for d, r in observations if lo < d <= hi]
        shell_max.append(max(vals) if vals else None)
    trend = [m for m in shell_max if m is not None]
    growing = any(not math.isfinite(m) for m in trend) or (
        len(trend) >= 3 and all(trend[i + 1] >= 1.4 * trend[i] for i in range(len(trend) - 1))
    )
    return MSCQResult(
        holds_evidence=not growing,
        kappa_hat=kappa_hat,
        worst_point=worst,
        samples=total,
        ratios_by_radius=[m if m is not None else 0.0 for m in shell_max],
    )


def check_basic_cq(prob: CompositeProblem, x) -> bool:
    """Whether N_dom g(F(x)) meets ker adj(dF(x)) only at the origin."""
    x = np.asarray(x, dtype=float)
    z = poly_eval(prob.F, x)
    if not prob.g.value(z).is_finite:
        raise BasePointInfeasible("F(x) lies outside dom g")
    return prob.g.basic_cq(z, jacobian(prob.F, x))


# -- chain rules ----------------------------------------------------------------------


def subderivative_chain(prob: CompositeProblem, x, w) -> ExtReal:
    """d g(F(x)) at dF(x) w."""
    x = np.asarray(x, dtype=float)
    z = poly_eval(prob.F, x)
    if not prob.g.value(z).is_finite:
        raise BasePointInfeasible("F(x) lies outside dom g")
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
    mscq_provenance: str = "user-asserted",
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
        return DualityInfo(PLUS_INF, PLUS_INF, None, multys.tau, 0.0, mscq_provenance)
    u, H = multys.J @ w, second_form(prob.F, x, w)
    dual_val, argmax = prob.g.dual_value(multys.z, u, H, multys)
    primal_val, _ = _primal_value(prob, v, u, H, multys)
    if primal_val.is_finite and dual_val.is_finite:
        gap = abs(primal_val.value - dual_val.value)
    elif primal_val.is_plus_inf and dual_val.is_plus_inf:
        gap = 0.0
    else:
        gap = math.inf
    return DualityInfo(primal_val, dual_val, argmax, multys.tau, gap, mscq_provenance)


# -- the primal side ------------------------------------------------------------------------


def _primal_value(prob: CompositeProblem, v, u, H, multys: MultiplierSet) -> tuple[ExtReal, bool]:
    """The primal value for u = dF(x) w, H = d2F(x)(w, w) with w on the
    critical cone, paired with True (every member's primal value is exact),
    the shape that tracing tools read."""
    return prob.g.primal_value(multys.z, multys.J, u, H, v), True


def primal_value(prob: CompositeProblem, x, v, w) -> ExtReal:
    """min over z of parabolic_chain(x, w, z) - <z, v>, in closed form."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    ms = multipliers(prob, x, v)
    if not ms.cone.contains(w):
        raise CriticalConePreconditionFailed("w is outside the critical cone")
    val, _ = _primal_value(prob, np.asarray(v, dtype=float), ms.J @ w, second_form(prob.F, x, w), ms)
    return val


# -- sampled assembly --------------------------------------------------------------------------


def sampled_objective(prob: CompositeProblem, include_phi: bool = False) -> SampledFunction:
    """g(F(.)) (optionally plus phi) as an oracle-ready sampled function with a
    batched evaluator and a Gauss-Newton feasibility restorer."""

    def ev(xp: np.ndarray) -> ExtReal:
        val = prob.g.value(poly_eval(prob.F, xp))
        if include_phi and val.is_finite:
            val = val + float(poly_eval(prob.phi, xp)[0])
        return val

    def ev_batch(X: np.ndarray) -> np.ndarray:
        vals = prob.g.value_batch(poly_eval_batch(prob.F, X))
        if include_phi:
            vals = vals + poly_eval_batch(prob.phi, X)[:, 0]
        return vals

    def restore(xp: np.ndarray):
        out = _restore_feasible_point(prob, np.asarray(xp, dtype=float), max_iter=20)
        return xp if out is None else out

    name = "phi + g(F(.))" if include_phi else "g(F(.))"
    return SampledFunction(
        evaluator=ev,
        dim=prob.n,
        description=name,
        batch_evaluator=ev_batch,
        restore_feasible=restore,
    )
