"""Brute-force difference-quotient machinery.

Everything here estimates limits of first- and second-order quotients by
direct function evaluation: a geometric step schedule, a shrinking search
ball around the probed direction, batched grid (or seeded random) sampling
per level, a deterministic pattern-search polish, and a three-level
extrapolation of the level minima.  A schedule holds only its
STABLE_LEVELS = 3 finest levels (``GridSchedule.t_levels``), so every search
runs and every fold reads exactly those.  These estimates are the ground
truth the closed forms are validated against; they never share formulas
with the catalog.

One kernel, ``_ball_search``, does every search: search j minimizes
((f(x + t*drift + s*p) - shift) - lin(p, t)) / (t^order / order) over a ball
about its own center at one level t, with order 2, s = t and no drift for the
second subderivative, order 2, the drift w and s = t^2/2 for the parabolic
one, and order 1, s = t and no drift for the subderivative.  It values
the balls of a chunk of centers at its levels in one batch, restores the
centers of all-infinite balls in one stack and polishes the searches in
lockstep (``_pattern_search``): each round scores the complete polls of every
live search in one ``SampledFunction.values`` call, whose rows equal ``value``
at each point bit for bit, so each search takes the path it would take alone,
and a stack raises what its first failing center raises alone.  The level
search is a stack of centers, one per probed direction w, the parabolic
estimate a stack of centers z, the parabolic-regularity check the z_t of
every direction's recovery sequence, each with its own drift w, and the
first-order fallback the directions whose ray leaves the domain, unpolished
and unrestored.  One stabilizer, ``_stabilize``, folds the level minima of
every estimate, a stack of them (one row per center) in one pass, and one
rule, ``gap_tol``, says when an estimate agrees with a closed form.

The sampled scan of the optimality conditions (``optimality.check_ssosc``)
also refines its least lattice point with ``_pattern_search``: it shares the
generic poll only, and scores by its own chain-rule formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import STABLE_LEVELS, GridSchedule
from .errors import (
    BasePointInfeasible,
    NegativeInfinityDetected,
    UndefinedValue,
)
from .extreal import CAP, NEG_GUARD, PLUS_INF, ExtReal
from .numkit import ball_steps, row_norms

RANDOM_BALL_SAMPLES = 2000
GRID_DIM_LIMIT = 4
# _ball_search values a chunk of centers at a time, sized so that one batch
# holds about this many rows (centers times ball points).
Z_BATCH_ROWS = 4096
# The level search rescues at most this many trial points per direction and level.
RESTORE_BUDGET = 150
# The absolute and relative agreement tolerance of gap_tol.
GAP_TOL = 0.05


@dataclass
class SampledFunction:
    """A deterministic extended-real-valued function on R^dim.

    evaluator maps a (k, dim) stack of points to k floats, +inf marking
    points outside the domain; each row is f at that point alone, whatever
    else the stack holds.  value, values and eval_batch all go through it,
    so a point, a stack and a search ball read the same value at the same
    point.  restore_feasible, when given, maps a stack of points to nearby
    domain points, row by row, and lets the searches steer along active
    constraint surfaces; it provides zeroth-order domain information only.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dim: int
    description: str = ""
    restore_feasible: Callable[[np.ndarray], np.ndarray] | None = None

    def values(self, X) -> np.ndarray:
        """f at each row of a stack as value reads it (a finite value above
        the ExtReal cap is +inf), but unchecked: a row below NEG_GUARD, or
        NaN, is returned as it is."""
        vals = np.asarray(self.evaluator(np.atleast_2d(np.asarray(X, dtype=float))), dtype=float)
        return np.where(vals > CAP, math.inf, vals)

    def value(self, x) -> ExtReal:
        val = float(self.values(np.asarray(x, dtype=float)[None])[0])
        if math.isnan(val):
            raise UndefinedValue(f"{self.description or 'sampled function'} is NaN at a point")
        out = ExtReal(val)
        if out.is_finite and out.value < NEG_GUARD:
            raise NegativeInfinityDetected(self.description or "sampled function")
        return out

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """values, checked as value checks a point: the first row that is
        NaN or below NEG_GUARD is valued alone, which raises."""
        vals = self.values(X)
        if not (vals >= NEG_GUARD).all():
            self.value(np.atleast_2d(np.asarray(X, dtype=float))[np.argmax(~(vals >= NEG_GUARD))])
        return vals


@dataclass
class EpiReport:
    """Convergence record for one probed direction."""

    direction: np.ndarray
    formula_value: ExtReal
    oracle_value: ExtReal
    achieving_sequence: list = field(default_factory=list)
    converged: bool = False
    gap: float = math.inf


# -- elementary quotients -----------------------------------------------------


def _base_value(f: SampledFunction, x) -> float:
    """f(x), which must be finite."""
    f0 = f.value(x)
    if not f0.is_finite:
        raise BasePointInfeasible("f(x) must be finite")
    return f0.value


# -- per-level search ---------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _grid_ball(dim: int, radius: float, samples_per_axis: int) -> np.ndarray:
    """The center, then the points of the samples_per_axis^dim grid over
    [-radius, radius]^dim that lie in the ball; read-only, as it is shared."""
    axis = np.linspace(-radius, radius, samples_per_axis)
    mesh = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= radius * (1 + 1e-12)]
    out = np.vstack([np.zeros((1, dim)), mesh])
    out.flags.writeable = False
    return out


def _ball_offsets(dim: int, radius: float, sched: GridSchedule, rng) -> np.ndarray:
    if radius <= 0:
        return np.zeros((1, dim))
    if dim <= GRID_DIM_LIMIT:
        return _grid_ball(dim, radius, sched.samples_per_axis)
    return np.vstack([np.zeros((1, dim)), ball_steps(rng, RANDOM_BALL_SAMPLES, dim, radius, 1.0 / dim)])


def _ball_clip(P: np.ndarray, center, radius) -> np.ndarray:
    """Each row of P pulled radially into the ball of the given radius about
    center (one center and radius, or one per row); rows inside, and rows
    whose radius is 0, are returned as they are."""
    off = P - center
    nrm = row_norms(off)
    far = ~(nrm <= radius) & (radius > 0)
    if not far.any():
        return P
    out = P.copy()
    at = center[far] if np.ndim(center) == 2 else center
    out[far] = at + off[far] * ((radius[far] if np.ndim(radius) else radius) / nrm[far])[:, None]
    return out


def _quotients(vals: np.ndarray, shift, lin, half_t2) -> np.ndarray:
    """((vals - shift) - lin) / half_t2 per row, NaN where vals is +inf (the
    point is outside the domain) and -inf where value would raise (NaN, or
    below NEG_GUARD)."""
    quot = ((vals - shift) - lin) / half_t2
    quot[vals == math.inf] = math.nan
    quot[~(vals >= NEG_GUARD)] = -math.inf
    return quot


def _schedule_balls(sched: GridSchedule, dim: int) -> list:
    """(t, radius, ball offsets) per level of sched; the levels' offsets are
    drawn, in order, from one rng seeded with sched.seed."""
    rng = np.random.default_rng(sched.seed)
    return [(t, sched.radius(t), _ball_offsets(dim, sched.radius(t), sched, rng)) for t in sched.t_levels()]


def _pattern_search(score, starts, f_starts, centers, radii, extra_dirs=(), max_evals=700,
                    rescue=None, rescues=0, accepted=None):
    """Complete-poll pattern searches run in lockstep, each inside its own
    ball (generalized pattern search: Torczon 1997; Audet-Dennis 2006).

    Search j starts at starts[j], valued f_starts[j], in the ball of radius
    radii[j] about centers[j]; max_evals and rescues are one number for all
    searches or one per search.  The directions are the unit axes, then
    extra_dirs normalized.  A poll at step s takes the trial points
    best + s*d, best - s*d of every direction d in that order, pulls them
    into the ball and keeps as many as the search's evaluations left allow.
    Each round stacks the polls of the live searches and scores them in one
    call score(P, owner), which maps the stack P and the search owning each
    row to (values, points actually evaluated).  A search moves to the row of
    its poll with the least value below its best one (the first such row on
    ties) and polls again at the same step; a poll with no such row halves
    the step.  A search stops when its step reaches radius * 1e-9 (a radius
    of 0 never polls) or max_evals of its trial points have been scored.
    Each point search j moves to is appended to accepted[j], when given.

    A NaN value marks a point outside the domain.  With rescue, the first
    NaN rows of each poll, at most rescues over its search, go to one call
    rescue(P, owner) per round, which answers like score.  A value of -inf
    marks a point whose evaluation failed; that search ends there and
    returns it for the caller to raise.  Each row is valued as it would be
    alone, so each search takes the path it takes alone.  Returns the best
    values (a list) and the best points, one per search.
    """
    dim = centers.shape[1]
    dirs = [np.eye(dim)[i] for i in range(dim)]
    for d in extra_dirs:
        nrm = float(np.linalg.norm(d))
        if nrm > 1e-12:
            dirs.append(np.asarray(d, dtype=float) / nrm)
    pattern = np.array([sgn * d for d in dirs for sgn in (1.0, -1.0)])
    best_p, best_f = np.array(starts, dtype=float), np.array(f_starts, dtype=float)
    k = len(best_f)
    radii = np.array(np.broadcast_to(radii, k), dtype=float)
    step, floor, evals = radii / 2.0, radii * 1e-9, np.zeros(k, dtype=int)
    max_evals, left = np.broadcast_to(max_evals, k), np.array(np.broadcast_to(rescues, k))
    while (live := np.flatnonzero((step > floor) & (evals < max_evals) & (best_f != -math.inf))).size:
        polls = [best_p[j] + step[j] * pattern[:max_evals[j] - evals[j]] for j in live]
        sizes = [len(p) for p in polls]
        owner, ends = np.repeat(live, sizes), np.cumsum(sizes)
        P = _ball_clip(np.concatenate(polls), centers[owner], radii[owner])
        vals, pts = score(P, owner)
        evals[live] += sizes
        nan = np.isnan(vals)
        ask = np.concatenate([np.flatnonzero(nan[e - n:e])[:left[j]] + (e - n)
                              for j, n, e in zip(live, sizes, ends)])
        if ask.size:
            vals, pts = np.array(vals), np.array(pts)
            vals[ask], pts[ask] = rescue(P[ask], owner[ask])
            left -= np.bincount(owner[ask], minlength=k)
        for j, n, e in zip(live, sizes, ends):
            thr = best_f[j] - 1e-15 * (1.0 + abs(best_f[j]))
            below = np.where(vals[e - n:e] < thr, vals[e - n:e], math.inf)
            i = int(np.argmin(below))
            if below[i] == math.inf:
                step[j] *= 0.5
                continue
            best_p[j], best_f[j] = pts[e - n + i], vals[e - n + i]
            if accepted is not None:
                accepted[j].append(pts[e - n + i])
    return best_f.tolist(), best_p


def _pattern_refine(score, start, f_start, center, radius, max_evals, accepted):
    """One complete-poll pattern search along the axes, without rescues:
    _pattern_search of a single search, whose score(P) takes the stack
    alone; every point it moves to is appended to accepted.  Returns (best
    value, best point).  No library code calls it: the benchmark's layer
    tracer names it, and ROADMAP item 4 retires it."""
    (best_f,), (best_p,) = _pattern_search(
        lambda P, _: score(P), np.asarray(start)[None], [f_start], np.asarray(center)[None], radius,
        max_evals=max_evals, accepted=[accepted],
    )
    return best_f, best_p


def _ball_search(f: SampledFunction, x, shift, lin, centers, sched: GridSchedule, order: int,
                 drift=None, polish=False, rescues=0):
    """Minimize ((f(x + t*drift + s*p) - shift) - lin(p, t)) / (t^order / order)
    over p in the ball of radius sched.radius(t) about each row of centers,
    at each level t of sched: order 2 (t^2/2) for a second-order quotient,
    1 (t) for a first-order one, s = t without a drift, s = t^2/2 with one
    (one vector, or one per center), and lin(p, t) = t*<lin, p> for a vector
    lin, t*lin for a number or a column of one number per center.  Returns
    the minima (centers, levels), possibly inf, and their points (centers,
    levels, dim).

    A chunk of centers is valued at those levels in one values call of at
    most Z_BATCH_ROWS rows (or of one center): one buffer, whose view per
    level takes center + offset, gives lin(p, t), then is scaled by s and
    shifted in place; each argmin point is its center plus its offset.
    Each search starts at its best ball point, the first on ties, or, where
    the whole ball lies outside the domain, at its center, restored when f
    can restore: all such centers in one stack, each charged one rescue.
    With polish, _pattern_search polishes every search with a finite start
    in lockstep along the axes and a vector lin, rescuing at most `rescues`
    trial points per search.  A failed evaluation (NaN, or below NEG_GUARD)
    ends its search at -inf, and a center with a failed ball point is
    neither rescued nor polished; the first failed search of the first such
    center is valued alone, which raises what that center searched alone
    raises."""
    n, dim = centers.shape
    balls = _schedule_balls(sched, dim)
    k = len(balls)
    ts, radii = np.array([b[0] for b in balls]), np.array([b[1] for b in balls])
    half = 0.5 * ts * ts
    denom = half if order == 2 else ts
    scale = ts if drift is None else half
    drifts = None if drift is None else np.broadcast_to(drift, (n, dim))
    bases = np.broadcast_to(x if drift is None else x + ts[:, None] * drifts[:, None, :], (n, k, dim))
    along = np.ndim(lin) == 1
    slopes = None if along else np.broadcast_to(lin, (n, 1))[:, 0]

    def lin_at(P, c, j):  # c, j: the center and level of each row of P (j may be one level)
        return ts[j] * np.vecdot(P, lin) if along else ts[j] * slopes[c]

    def score(P, own):  # own: the search of each row, center by center, level by level
        c, j = own // k, own % k
        return _quotients(f.values(bases[c, j] + scale[j][:, None] * P), shift, lin_at(P, c, j), denom[j]), P

    def rescue(P, own):
        c, j = own // k, own % k
        restored = np.asarray(f.restore_feasible(bases[c, j] + scale[j][:, None] * P), dtype=float)
        back = restored - x if drift is None else (restored - x) - ts[j][:, None] * drifts[c]
        cand = _ball_clip(back / scale[j][:, None], centers[c], radii[j])
        val, _ = score(cand, own)
        lost = np.isnan(val)
        val[lost] = math.inf
        return val, np.where(lost[:, None], P, cand)

    best, points = np.full((n, k), math.inf), np.repeat(centers[:, None, :], k, axis=1)
    sizes = [len(offsets) for _, _, offsets in balls]
    chunk = max(1, Z_BATCH_ROWS // sum(sizes))
    for lo in range(0, n, chunk):
        C = centers[lo:lo + chunk]
        cuts = len(C) * np.cumsum(sizes)[:-1]
        batch, lins = np.empty((len(C) * sum(sizes), dim)), []
        for j, (P, (_, _, offsets)) in enumerate(zip(np.split(batch, cuts), balls)):  # views, level by level
            P3 = P.reshape(len(C), -1, dim)
            np.add(C[:, None, :], offsets, out=P3)
            lins.append(lin_at(P, np.arange(lo, lo + len(C)).repeat(len(offsets)), j))
            P3 *= scale[j]
            P3 += bases[lo:lo + chunk, j, None]
        for j, (vals, (_, _, offsets)) in enumerate(zip(np.split(f.values(batch), cuts), balls)):
            quot = _quotients(vals, shift, lins[j], denom[j]).reshape(len(C), -1)
            quot[np.isnan(quot)] = math.inf  # outside the domain
            idx = np.argmin(quot, axis=1)  # a failed point (-inf) first
            best[lo:lo + chunk, j], points[lo:lo + chunk, j] = quot[np.arange(len(C)), idx], C + offsets[idx]
    failed = (best == -math.inf).any(axis=1)
    iz, jz = np.nonzero((best == math.inf) & ~failed[:, None])  # center by center, level by level
    points[iz, jz] = centers[iz]
    if f.restore_feasible is not None and iz.size:
        best[iz, jz], points[iz, jz] = rescue(centers[iz], iz * k + jz)
    if polish:
        left = np.full((n, k), rescues if f.restore_feasible is not None else 0)
        left[iz, jz] -= left[iz, jz] > 0
        vals, pts = _pattern_search(score, points.reshape(-1, dim), best.ravel(), centers.repeat(k, axis=0),
                                    np.where(np.isfinite(best) & ~failed[:, None], radii, 0.0).ravel(),
                                    [lin] if along else [], rescue=rescue, rescues=left.ravel())
        best, points = np.reshape(vals, (n, k)), pts.reshape(n, k, dim)
    iz, jz = np.nonzero(best == -math.inf)
    if iz.size:
        f.value(bases[iz[0], jz[0]] + scale[jz[0]] * points[iz[0], jz[0]])  # raises, as valuing it alone does
        raise NegativeInfinityDetected(f.description or "sampled function")
    return best, points


def _level_minimum(f: SampledFunction, base_point, lin_coeff, lin_shift, centers, sched):
    """At each level t of sched, minimize the quotient
    (f(base + t*p) - shift - t*<lin,p>) / (t^2/2) over the ball about each
    row of centers of radius sched.radius(t).  Returns the minima (centers,
    levels), possibly inf, and their points (centers, levels, dim):
    _ball_search of the stack, polished along lin, rescuing at most
    RESTORE_BUDGET trial points per center and level."""
    return _ball_search(f, base_point, lin_shift, lin_coeff, centers, sched, order=2,
                        polish=True, rescues=RESTORE_BUDGET)


# -- stabilized limits ----------------------------------------------------------


def _stabilize(ts, M) -> list:
    """Fold each row of a (k, STABLE_LEVELS) stack M of level minima at the
    levels ts of a schedule into one estimate: a list of k ExtReals.

    The least finite minimum of a row is the raw liminf proxy, and +inf when
    it exceeds 10/t at the finest level: quotients growing like 1/t diverge.
    A finite row that grows by the ratio 1.8 per level beyond 100 diverges
    too; otherwise its Lagrange extrapolation to t = 0 replaces the raw
    value where the two lie within twice the row's spread, removing the
    O(radius) search-ball bias of consistent levels.  Every row is folded by
    the operations, in the order, that fold it alone.
    """
    M = np.reshape(np.asarray(M, dtype=float), (-1, STABLE_LEVELS))
    finite = np.isfinite(M)
    raw, full = np.where(finite, M, math.inf).min(axis=1), finite.all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # rows holding +inf, or huge minima
        guess = np.zeros(len(M))
        for i, ti in enumerate(ts):  # Lagrange at zero: m_i * prod (0 - t_j)/(t_i - t_j)
            prod = M[:, i]
            for j, tj in enumerate(ts):
                if j != i:
                    prod = prod * ((0.0 - tj) / (ti - tj))
            guess = guess + prod
        grows = ((M[:, 2] > 100.0) & (M[:, 0] > 0) & (M[:, 2] >= 1.8 * M[:, 1])
                 & (1.8 * M[:, 1] >= 1.8 * 1.8 * M[:, 0]))
        spread = M.max(axis=1) - M.min(axis=1)
        near = np.abs(guess - raw) <= 2.0 * spread + 1e-12 * (1.0 + np.abs(raw))
    out = np.where(full & near, guess, raw)
    out[(raw > 10.0 / ts[-1]) | (full & grows)] = math.inf
    return [ExtReal(m) if math.isfinite(m) else PLUS_INF for m in out.tolist()]


def gap_tol(value: ExtReal) -> float:
    """How far an estimate may lie from value and still agree with it:
    GAP_TOL, or GAP_TOL * |value| for a finite value if larger."""
    return max(GAP_TOL, GAP_TOL * abs(value.value)) if value.is_finite else GAP_TOL


# -- the oracle operations -------------------------------------------------------


def estimate_parabolic_subderivative(
    f: SampledFunction,
    x,
    w,
    dfw: float,
    z,
    sched: GridSchedule | None = None,
):
    """min over t and z' near z of the parabolic quotient along
    x + t w + t^2 z'/2: an ExtReal for a point z, a list of them for a stack
    of z, each equal to the estimate at that z alone.  The balls of every
    (z, level) pair are searched by one _ball_search, polished in lockstep,
    and one _stabilize folds every z."""
    sched = sched or GridSchedule()
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    Z = z.reshape(-1, w.shape[0])
    f0 = _base_value(f, x)
    best, _ = _ball_search(f, x, f0, dfw, Z, sched, order=2, drift=w, polish=True)
    out = _stabilize(sched.t_levels(), best)
    return out[0] if z.ndim == 1 else out


def estimate_subderivative(f: SampledFunction, x, w, sched: GridSchedule | None = None):
    """The limit of the first-order quotients (f(x + t w') - f(x)) / t as
    t -> 0 and w' -> w, the subderivative (Rockafellar-Wets 1998, Def. 8.1):
    an ExtReal for a direction w, a list of them for a stack, each as alone.

    Every ray's levels are valued in one eval_batch, ray by ray.  Where a
    ray leaves the domain at one of them, its levels are instead the least
    quotients over the balls about w, from one unpolished _ball_search of
    order 1 over all such w that restores no center: an all-infinite ball
    stays +inf, so the critical-cone test of check_parabolic_regularity
    sees no restored point.  _stabilize folds."""
    sched = sched or GridSchedule()
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    W = w.reshape(-1, x.shape[0])
    f0 = _base_value(f, x)
    ts = np.array(sched.t_levels())
    rays = f.eval_batch((x + ts[:, None] * W[:, None, :]).reshape(-1, x.shape[0]))
    quot = _quotients(rays.reshape(-1, len(ts)), f0, 0.0, ts)
    off = np.flatnonzero(~np.isfinite(quot).all(axis=1))
    if off.size:
        quot[off] = _ball_search(replace(f, restore_feasible=None), x, f0, 0.0, W[off], sched, order=1)[0]
    out = _stabilize(ts, quot)
    return out[0] if w.ndim == 1 else out


def check_twice_epi_diff(
    f: SampledFunction,
    x,
    v,
    dirs,
    sched: GridSchedule | None = None,
    *,
    formula: Callable[[np.ndarray], ExtReal],
) -> list[EpiReport]:
    """Per direction, search for a recovery sequence achieving the limit
    value that formula supplies.  f(x) is valued once, one _level_minimum
    searches the stack of all directions, each as it would be searched
    alone, and one _stabilize folds every direction's levels."""
    sched = sched or GridSchedule()
    x = np.asarray(x, dtype=float)
    W = np.reshape(np.asarray(dirs, dtype=float), (-1, x.shape[0]))
    minima, points = _level_minimum(f, x, np.asarray(v, dtype=float), _base_value(f, x), W, sched)
    ts = sched.t_levels()
    estimates, reports = _stabilize(ts, minima), []
    for w, levels, at, oracle_value in zip(W, minima.tolist(), points, estimates):
        formula_value = formula(w)
        tail = [m for m in levels if math.isfinite(m)]
        if formula_value.is_plus_inf:
            converged = oracle_value.is_plus_inf
            gap = 0.0 if converged else math.inf
        elif not tail:
            converged = False
            gap = math.inf
        else:
            best = min(tail)
            candidates = [best]
            if oracle_value.is_finite:
                candidates.append(oracle_value.value)
            gap = min(abs(c - formula_value.value) for c in candidates)
            converged = gap <= gap_tol(formula_value)
        reports.append(
            EpiReport(
                direction=w,
                formula_value=formula_value,
                oracle_value=oracle_value,
                achieving_sequence=list(zip(ts, at, levels)),
                converged=converged,
                gap=gap,
            )
        )
    return reports


def check_parabolic_regularity(
    f: SampledFunction, x, v, reports: list[EpiReport], sched: GridSchedule | None = None
) -> list[tuple[bool, ExtReal, ExtReal] | None]:
    """Per report, compare the second subderivative estimate lhs against the
    parabolic dual value rhs = inf_z {parabolic(w | z) - <z, v>} along the
    oracle's own recovery sequence.  Returns one verdict per report:
    (holds, lhs, rhs), or None where w fails the numeric critical-cone test.

    f is parabolically regular along w exactly when some recovery sequence
    of the second subderivative has (w_t - w)/t bounded (Rockafellar-Wets
    1998, Prop. 13.64 and Def. 13.65).  Each finite level (t, p_t) of the
    level search gives the candidate z_t = 2(p_t - w)/t: on the arc
    x + t w + t^2 z_t/2, the parabolic quotient minus <z_t, v> is that
    level's minimum.  A candidate counts only if its minimum is finite at
    all three levels, so its own level alone cannot confirm it.  A counted
    value below lhs - gap_tol(lhs) refutes lhs and is rhs; otherwise rhs is
    the counted value closest to lhs, and the check holds when it lies
    within gap_tol(lhs).  rhs is +inf when no candidate counts.

    A report of check_twice_epi_diff gives w (its direction), lhs (its
    oracle_value) and the levels (its achieving_sequence).  One stacked
    estimate_subderivative tests every w against <v, w> (within 1e-6), one
    polished _ball_search values the candidates of every w that passes, at
    every level, with drift w and slope <v, w>, and one _stabilize folds
    them; each verdict is that of its report checked alone."""
    sched = sched or GridSchedule()
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    W = np.reshape([rep.direction for rep in reports], (-1, x.shape[0]))
    slopes = np.array([float(v @ w) for w in W])
    estimates = estimate_subderivative(f, x, W, sched)
    passed = [i for i, est in enumerate(estimates) if est.is_finite and abs(est.value - slopes[i]) <= 1e-6]
    cands = [(i, 2.0 * (p - W[i]) / t) for i in passed for t, p, m in reports[i].achieving_sequence
             if math.isfinite(m)]
    owner = np.array([i for i, _ in cands], dtype=int)
    Z = np.reshape([z for _, z in cands], (-1, x.shape[0]))
    minima, _ = _ball_search(f, x, _base_value(f, x), slopes[owner, None], Z, sched, order=2, drift=W[owner],
                             polish=True)
    full = np.isfinite(minima).all(axis=1)
    folded = _stabilize(sched.t_levels(), minima[full])
    counted = np.array([est.as_float() for est in folded])
    verdicts = [None] * len(reports)
    for i in passed:
        values = counted[owner[full] == i] - Z[full & (owner == i)] @ v  # each w's own product
        lhs = reports[i].oracle_value
        target, tol = lhs.as_float(), gap_tol(lhs)
        if values.size and values.min() < target - tol:  # a counted value refutes lhs
            rhs = float(values.min())
        elif values.size and lhs.is_finite:
            rhs = float(values[np.argmin(np.abs(values - target))])
        else:  # no candidate counts, or lhs and every counted value are +inf
            rhs = math.inf
        holds = rhs == target or abs(rhs - target) <= tol
        verdicts[i] = (holds, lhs, ExtReal(rhs) if math.isfinite(rhs) else PLUS_INF)
    return verdicts
