"""Second-order optimality machinery: necessary and sufficient conditions
over the critical cone, quadratic-growth verification, and the
strong-subregularity certificate.

The scalar being tested on every direction is the multiplier maximum of
<Hxx L(x, y) w, w> + d2g(F(x), y)(dF(x) w), which decomposes exactly as the
objective-Hessian quadratic form plus the composite dual value.

Both conditions test its least value over the critical cone's unit sphere,
SONC against >= 0 and SSOSC against > 0, so one scan (``check_ssosc``)
finds that least value and ``check_sonc`` is a verdict on its report.  In
the exact case (one multiplier y, a catalog member whose second-order term
is the quadratic form of a matrix M on the critical cone, and a critical cone
that answers ``min_quadratic``) that scalar is w^T Q w with
Q = Hess phi + sum_i y_i Hess F_i + J^T M J, and the scan takes its exact
minimum from the face-eigenvalue kernel.  Every other case values the cone's
rays and a projected sphere lattice, and refines the least point with the
oracle's complete-poll pattern search on the cone's unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .composite import (
    MultiplierSet,
    _base_point,
    _outer_at,
    _restore_feasible_points,
    chain_dual_value,
    multipliers,
    outer_values,
)
from .core import CompositeProblem, _hessians, gradient, hessian, poly_eval
from .errors import EpidiffError, NotStationary
from .extreal import PLUS_INF, ExtReal
from .numkit import ball_steps, dedupe, row_norms, unit_rows
from .numkit.polyhedra import DEDUP_TOL
from .oracle import _pattern_search

SONC_TOL = 1e-6
SSOSC_TOL = 1e-6
# sphere-lattice points the sampled scan projects onto the critical cone
N_DIRS = 1024
# verify_growth forgives a sample this much below the growth bound.
GROWTH_SLACK = 1e-9
# verify_growth draws its samples this many at a time at most, each block one
# ball_steps draw (its unit rows, then its uniforms), so the samples of a seed
# depend on this size; it stays a constant so that a seed keeps its samples.
# It does not bound a stack: one pass values every block whose size is settled.
GROWTH_BLOCK = 256


@dataclass
class SOCReport:
    holds: bool
    worst_direction: np.ndarray | None
    worst_value: ExtReal
    directions_tested: int  # the faces scanned when method is "faces"
    method: str  # "faces" (the exact kernel) | "sphere_grid" (rays, lattice, refine)


@dataclass
class GrowthReport:
    samples: int
    violations: int


@dataclass
class SmsCertificate:
    affirmative: bool
    equivalence_note: str
    assumptions: dict


def stationary_data(prob: CompositeProblem, x, kappa: float, ell: float | None = None):
    """(ms, phi_hess): the multiplier set of the base point (x, v) with
    v = -grad phi(x), under kappa and ell as ``multipliers`` takes them, and
    the Hessian of phi at x; both conditions take the pair as their
    ``base``."""
    x = np.asarray(x, dtype=float)
    v = -gradient(prob.phi, x)
    try:
        ms = multipliers(prob, x, v, kappa=kappa, ell=ell)
    except EpidiffError as exc:
        raise NotStationary(f"no multipliers at the base point: {exc}") from exc
    if ms.is_empty:
        raise NotStationary("-grad phi(x) is not a subgradient of g(F(.)) at x")
    return ms, hessian(prob.phi, x)


def _condition_value(prob: CompositeProblem, base, w) -> ExtReal:
    ms, phi_hess = base
    w = np.asarray(w, dtype=float)
    dual, _ = chain_dual_value(prob, ms, w)
    if dual.is_plus_inf:
        return PLUS_INF
    return ExtReal(float(w @ phi_hess @ w) + dual.value)


def _least_condition(prob: CompositeProblem, base, dirs) -> tuple[ExtReal, np.ndarray]:
    """The least condition value over the nonempty list dirs, and the first
    direction that reaches it (the first direction when every value is +inf)."""
    vals = [_condition_value(prob, base, w) for w in dirs]
    i = vals.index(min(vals))
    return vals[i], dirs[i]


def _unit_sphere_seeds(dim: int, count: int, rng) -> list[np.ndarray]:
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return [np.array([math.cos(a), math.sin(a)]) for a in angles]
    if dim == 3:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        pts = []
        for k in range(count):
            zc = 1.0 - 2.0 * (k + 0.5) / count
            r = math.sqrt(max(0.0, 1.0 - zc * zc))
            pts.append(np.array([r * math.cos(golden * k), r * math.sin(golden * k), zc]))
        return pts
    return list(unit_rows(rng, count, dim))


def sample_critical_directions(prob, ms: MultiplierSet, n_dirs: int, seed: int, dense: bool = False):
    """The unit directions the critical cone of the multiplier set gives
    for n_dirs random unit seeds, or with dense an n_dirs-point sphere
    lattice, without repeats:
    a polyhedral cone's extreme rays and projected seeds, or the seeds a
    predicate cone contains or lifts (``CriticalConeRepr.directions``)."""
    rng = np.random.default_rng(seed)
    seeds = _unit_sphere_seeds(prob.n, n_dirs, rng) if dense else list(unit_rows(rng, n_dirs, prob.n))
    return dedupe(ms.cone.directions(seeds), DEDUP_TOL)


def _exact_minimum(prob: CompositeProblem, base) -> tuple[list[np.ndarray], int] | None:
    """([w], faces) in the exact case: w the kernel's unit minimizer of the
    condition quadratic over the critical cone's unit sphere (none when the
    cone is {0}) and the number of faces it scanned; None in every other
    case."""
    ms, phi_hess = base
    if len(ms.multipliers) != 1:
        return None
    y = ms.first()
    M = prob.g.second_order_matrix(ms.z, y)
    if M is None:
        return None
    Q = phi_hess + np.tensordot(y, _hessians(prob.F, ms.x), 1) + ms.J.T @ M @ ms.J
    exact = ms.cone.min_quadratic(Q)
    if exact is None:
        return None
    _, w, faces = exact
    return ([] if w is None else [w]), faces


def check_ssosc(prob: CompositeProblem, base, seed: int) -> SOCReport:
    """Sufficient condition at the base point ``base = stationary_data(...)``:
    the condition value is strictly positive on the unit sphere of the
    critical cone.  The report's worst value is the least one the scan found,
    which ``check_sonc`` judges as well.

    The exact case values the kernel's minimizer.  Otherwise the scan values
    the cone's rays and the projected sphere lattice, then refines the least
    point by a pattern search in the unit ball whose trial points are valued
    at their projections onto the cone (an interior direction can be the
    minimizer in cones of dimension >= 2)."""
    ms = base[0]
    exact = _exact_minimum(prob, base)
    if exact is not None:
        (dirs, tested), method = exact, "faces"
    else:
        dirs = sample_critical_directions(prob, ms, N_DIRS, seed, dense=True)
        tested, method = len(dirs), "sphere_grid"
    if not dirs:
        # the critical cone is {0}: the condition over nonzero directions is vacuous
        return SOCReport(True, None, PLUS_INF, 0, method)
    worst, worst_dir = _least_condition(prob, base, dirs)
    if worst.is_plus_inf:
        return SOCReport(True, None, PLUS_INF, tested, method)
    if method == "sphere_grid":

        def score(P, _):
            vals, pts = np.full(len(P), np.nan), P.copy()
            for i, p in enumerate(map(ms.cone.project, P)):
                if p is not None:
                    vals[i], pts[i] = _condition_value(prob, base, p).as_float(), p
            return vals, pts

        (val,), (worst_dir,) = _pattern_search(score, worst_dir[None], [worst.value],
                                               np.zeros((1, prob.n)), 1.0)
        worst = ExtReal(val)
    return SOCReport(worst.value > SSOSC_TOL, worst_dir, worst, tested, method)


def check_sonc(ssosc: SOCReport) -> SOCReport:
    """Necessary condition, judged on the report of ``check_ssosc``: the
    least condition value it found over the critical cone's unit sphere is
    nonnegative (to SONC_TOL)."""
    worst = ssosc.worst_value
    return replace(ssosc, holds=worst.is_plus_inf or worst.value >= -SONC_TOL)


def verify_growth(
    prob: CompositeProblem,
    x,
    ell: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> GrowthReport:
    """Sample feasible points near x and count violations of the quadratic
    growth inequality.  Every infeasible ball sample is restored onto the
    constraint surface, where violations concentrate, and kept when its
    restored point lies within epsilon of x.

    The samples are drawn uniformly in the ball a block at a time: a block
    holds no more samples than are still wanted or left in the attempt
    budget (and at most GROWTH_BLOCK), so it is counted whole, as the
    one-sample-at-a-time loop would count it.  No outcome can change the size
    of a full block that fits that room, so each pass draws all of them (or
    the one short block), values them in one stack and restores the
    infeasible ones in one stack, each row bit for bit as it would be alone.
    A run of 2000 that keeps its samples takes two passes."""
    if ell <= 0 or epsilon <= 0:
        raise ValueError("ell and epsilon must be positive")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    psi0 = float(poly_eval(prob.phi, x)[0]) + _base_point(prob, x)[1]
    kept = 0
    violations = 0
    attempts = 0
    while kept < n_samples and attempts < 20 * n_samples:
        room = min(n_samples - kept, 20 * n_samples - attempts)
        blocks = [GROWTH_BLOCK] * (room // GROWTH_BLOCK) or [room]
        XP = x + np.concatenate([ball_steps(rng, b, prob.n, epsilon, 1.0 / prob.n) for b in blocks])
        gvals = outer_values(prob, XP)
        off = np.flatnonzero(~np.isfinite(gvals))
        restored, ok, F_restored = _restore_feasible_points(prob, XP[off], max_iter=30)
        near = ok & (row_norms(restored - x) <= epsilon)
        XP[off[near]] = restored[near]
        gvals[off[near]] = _outer_at(prob, F_restored[near])
        lower = psi0 + 0.5 * ell * np.vecdot(XP - x, XP - x) - GROWTH_SLACK
        psi = poly_eval(prob.phi, XP)[:, 0] + gvals
        attempts += len(XP)
        kept += int(np.count_nonzero(np.isfinite(gvals)))
        violations += int(np.count_nonzero(np.isfinite(gvals) & (psi < lower)))
    return GrowthReport(samples=kept, violations=violations)


def sms_certificate(ssosc: SOCReport, mscq_provenance: str = "user-asserted") -> SmsCertificate:
    """Certificate tying the sufficient condition, as reported by
    ``check_ssosc``, to local minimality plus strong metric subregularity of
    the subgradient mapping at (x, 0)."""
    assumptions = {
        "constraint_qualification": mscq_provenance,
        "outer_parabolic_epi_differentiability": "catalog-guaranteed",
        "outer_parabolic_regularity": "catalog-guaranteed",
    }
    if ssosc.holds:
        note = (
            "sufficient condition holds: the point is a local minimizer and the "
            "subgradient mapping of the objective is strongly metrically "
            "subregular at (x, 0); equivalence valid under the listed assumptions"
        )
    else:
        note = (
            "sufficient condition fails: no strong-subregularity claim is made "
            "(the equivalence then rules it out at any local minimizer)"
        )
    return SmsCertificate(
        affirmative=ssosc.holds,
        equivalence_note=note,
        assumptions=assumptions,
    )
