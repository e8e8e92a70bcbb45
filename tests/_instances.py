"""Shared desk-scale problem instances and sampled-function builders."""

import math

import numpy as np

from epidiff.core import CompositeProblem, PolyMap, jacobian, poly_eval
from epidiff.errors import PointNotInDomain
from epidiff.extreal import PLUS_INF, ExtReal
from epidiff.numkit import Polyhedron, svec
from epidiff.numkit import sym
from epidiff.oracle import SampledFunction
from epidiff.outer import (
    NegSemidefIndicator,
    PlqFunction,
    PlqPiece,
    absolute_value,
    nonpositive_orthant,
    zero_function,
    zero_set,
)


def a1_problem():
    """dom {x2 <= x1^2} with the multiplier pinned at 1."""
    phi = PolyMap.from_strings([["x2"]], 2)
    F = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    return CompositeProblem(phi, F, nonpositive_orthant(1))


def abs_shift_problem():
    """|x - 1| with a linear objective tilting the multiplier to 1."""
    phi = PolyMap.from_strings([["-1 x1"]], 1)
    F = PolyMap.from_strings([["x1", "-1"]], 1)
    return CompositeProblem(phi, F, absolute_value())


def parabola_min_problem():
    """min x2 subject to x2 >= x1^2."""
    phi = PolyMap.from_strings([["x2"]], 2)
    F = PolyMap.from_strings([["x1^2", "-1 x2"]], 2)
    return CompositeProblem(phi, F, nonpositive_orthant(1))


def quartic_problem():
    """min x1^4, unconstrained through a zero outer function."""
    phi = PolyMap.from_strings([["x1^4"]], 1)
    return CompositeProblem(phi, PolyMap.identity(1), zero_function(1))


def mscq_fail_problem():
    """F(x) = x^2 into the nonpositive axis: dom f = {0}."""
    return CompositeProblem(PolyMap.zero(1), PolyMap.from_strings([["x1^2"]], 1), nonpositive_orthant(1))


def psd_problem():
    """Identity map into vectorized S^2 with the negative semidefinite cone."""
    phi = PolyMap.zero(3)
    F = PolyMap.identity(3)
    return CompositeProblem(phi, F, NegSemidefIndicator(2))


def psd_base_data():
    A = np.diag([0.0, -1.0])
    V = np.diag([1.0, 0.0])
    return svec(A), svec(V)


def two_multiplier_problem():
    """F(x) = (x, x) into the nonpositive orthant: a segment of multipliers."""
    phi = PolyMap.zero(1)
    F = PolyMap.from_strings([["x1"], ["x1"]], 1)
    return CompositeProblem(phi, F, nonpositive_orthant(2))


def half_square_plq():
    """g(y) = (max(y, 0))^2 / 2 as a two-piece PLQ on the line."""
    left = PlqPiece(Polyhedron.make(1, G=[[1.0]], h=[0.0]), np.zeros((1, 1)), np.zeros(1), 0.0)
    right = PlqPiece(Polyhedron.make(1, G=[[-1.0]], h=[0.0]), np.array([[1.0]]), np.zeros(1), 0.0)
    return PlqFunction([left, right])


def eq_constrained_problem():
    """min x2 + x1^2 subject to x2 = 0."""
    phi = PolyMap.from_strings([["x2", "x1^2"]], 2)
    F = PolyMap.from_strings([["x2"]], 2)
    return CompositeProblem(phi, F, zero_set(1))


def max_of_coordinates_plq():
    """g(y) = max(y1, y2, 0) as a three-piece PLQ on the plane."""
    zero2 = np.zeros((2, 2))
    first = PlqPiece(
        Polyhedron.make(2, G=[[-1.0, 1.0], [-1.0, 0.0]], h=[0.0, 0.0]),
        zero2,
        np.array([1.0, 0.0]),
        0.0,
    )
    second = PlqPiece(
        Polyhedron.make(2, G=[[1.0, -1.0], [0.0, -1.0]], h=[0.0, 0.0]),
        zero2,
        np.array([0.0, 1.0]),
        0.0,
    )
    neither = PlqPiece(
        Polyhedron.make(2, G=[[1.0, 0.0], [0.0, 1.0]], h=[0.0, 0.0]),
        zero2,
        np.zeros(2),
        0.0,
    )
    return PlqFunction([first, second, neither])


def outer_sampled(g) -> SampledFunction:
    """A catalog member as an oracle evaluator on its own ambient space."""
    return SampledFunction(
        evaluator=g.value_batch,
        dim=g.ambient_dim,
        description=f"{g.tag} evaluator",
        restore_feasible=g.domain_project,
    )


def example35_function() -> SampledFunction:
    """|x2 - |x1|^(4/3)| - x1^2: finite second subderivative along the first
    axis but empty parabolic-subderivative domain there."""

    def ev(X):
        return np.abs(X[:, 1] - np.abs(X[:, 0]) ** (4.0 / 3.0)) - X[:, 0] ** 2

    return SampledFunction(ev, 2, "irregular benchmark")


def random_psd_instance(rng, n):
    """A negative semidefinite matrix with a simple zero eigenvalue, a normal
    cone element, and a unit critical direction; returns (A, V, W)."""
    M = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    negs = -rng.uniform(0.6, 2.0, size=n - 1)
    lams = np.concatenate([[0.0], negs])
    A = Q @ np.diag(lams) @ Q.T
    A = 0.5 * (A + A.T)
    q0 = Q[:, 0]
    V = rng.uniform(0.5, 1.5) * np.outer(q0, q0)
    W = rng.standard_normal((n, n))
    W = 0.5 * (W + W.T)
    W = W - np.outer(q0, q0) * float(q0 @ W @ q0)
    W /= np.linalg.norm(W)
    return A, 0.5 * (V + V.T), W


def random_simple_top_instance(rng, n):
    """A symmetric matrix with a simple, well-separated top eigenvalue; the
    unique subgradient of the maximum eigenvalue; and a unit direction."""
    M = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    lams = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
    lams[0] = lams[1] + rng.uniform(0.6, 1.5)
    A = Q @ np.diag(lams) @ Q.T
    A = 0.5 * (A + A.T)
    V = np.outer(Q[:, 0], Q[:, 0])
    W = rng.standard_normal((n, n))
    W = 0.5 * (W + W.T)
    W /= np.linalg.norm(W)
    return A, 0.5 * (V + V.T), W


def jacobi_one_matrix(A):
    """The per-matrix cyclic Jacobi loop that sym_eig ran before it took
    stacks, kept as the reference."""
    M = sym._symmetrized(np.array(A, dtype=float))
    n = M.shape[0]
    Q = np.eye(n)
    if n == 1:
        return np.array([M[0, 0]]), Q
    scale = 1.0 + float(np.linalg.norm(M))
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(sym.MAX_SWEEPS):
        off = float(np.linalg.norm(M[off_mask]))
        if off <= sym.JACOBI_OFFDIAG_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = M[p, q]
                if abs(apq) <= 1e-300:
                    continue
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


def old_restore(prob, x0, project, distance, max_iter=60):
    """The per-point Gauss-Newton loop that the stacked restoration replaced,
    kept as the reference; project and distance are the member's one-point
    projection and distance."""
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        u = poly_eval(prob.F, x)
        try:
            p = np.asarray(project(u), dtype=float)
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
        dist = distance(u)
    except PointNotInDomain:
        return None
    if dist <= 1e-9 * (1.0 + float(np.linalg.norm(u))):
        return x
    return None


# -- the oracle's one-search-at-a-time loops, kept as references ---------------------


def old_pattern_refine(score, start, f_start, center, radius, extra_dirs=(), max_evals=700,
                       rescue=None, rescues=0):
    """The one-search complete poll that the lockstep searches replaced."""
    from epidiff.oracle import _ball_clip

    dim = center.shape[0]
    dirs = [np.eye(dim)[i] for i in range(dim)]
    for d in extra_dirs:
        nrm = float(np.linalg.norm(d))
        if nrm > 1e-12:
            dirs.append(np.asarray(d, dtype=float) / nrm)
    pattern = np.array([sgn * d for d in dirs for sgn in (1.0, -1.0)])
    best_p, best_f = start, f_start
    step, evals, floor = radius / 2.0, 0, radius * 1e-9
    while step > floor and evals < max_evals:
        P = _ball_clip(best_p + step * pattern[:max_evals - evals], center, radius)
        vals, pts = score(P)
        evals += len(P)
        ask = np.flatnonzero(np.isnan(vals))[:rescues]
        if ask.size:
            vals, pts = np.array(vals), np.array(pts)
            vals[ask], pts[ask] = rescue(P[ask])
            rescues -= ask.size
        thr = best_f - 1e-15 * (1.0 + abs(best_f))
        below = np.where(vals < thr, vals, math.inf)
        i = int(np.argmin(below))
        if below[i] == math.inf:
            step *= 0.5
            continue
        best_p, best_f = pts[i], float(vals[i])
        if best_f == -math.inf:
            break
    return best_f, best_p


def old_level_minimum(f, base_point, t, lin_coeff, lin_shift, center, radius, sched, rng):
    """The search of one level, run level after level before the levels ran
    in lockstep."""
    from epidiff.oracle import RESTORE_BUDGET, _ball_clip, _ball_offsets, _quotients

    half_t2 = 0.5 * t * t
    cands = center[None, :] + _ball_offsets(center.shape[0], radius, sched, rng)
    vals = f.eval_batch(base_point[None, :] + t * cands)
    quot = (vals - lin_shift - t * (cands @ lin_coeff)) / half_t2
    finite_mask = np.isfinite(quot)

    def score(P):
        lin = t * np.vecdot(P, lin_coeff)
        return _quotients(f.values(base_point + t * P), lin_shift, lin, half_t2), P

    def rescue(P):
        restored = np.asarray(f.restore_feasible(base_point + t * P), dtype=float)
        cand = _ball_clip((restored - base_point) / t, center, radius)
        val, _ = score(cand)
        lost = np.isnan(val)
        val[lost] = math.inf
        return val, np.where(lost[:, None], P, cand)

    rescues = RESTORE_BUDGET if f.restore_feasible is not None else 0
    if not finite_mask.any():
        if f.restore_feasible is None:
            return math.inf, center
        (val0,), (p0,) = score(center[None, :])
        if math.isnan(val0):
            (val0,), (p0,) = rescue(center[None, :])
            rescues -= 1
        if val0 == -math.inf:
            f.value(base_point + t * p0)  # raises
        if not math.isfinite(val0):
            return math.inf, center
        start, f_start = p0, float(val0)
    else:
        idx = int(np.argmin(np.where(finite_mask, quot, math.inf)))
        start, f_start = cands[idx], float(quot[idx])
    extra = [lin_coeff] if float(np.linalg.norm(lin_coeff)) > 0 else []
    best_f, best_p = old_pattern_refine(score, start, f_start, center, radius, extra_dirs=extra,
                                        rescue=rescue, rescues=rescues)
    if best_f == -math.inf:
        f.value(base_point + t * best_p)  # raises
    return best_f, best_p


def old_second_order_levels(f, x, v, w, sched):
    """The (t, m, p) records of the level search, one level after another."""
    x, v, w = (np.asarray(a, dtype=float) for a in (x, v, w))
    f0 = f.value(x)
    rng = np.random.default_rng(sched.seed)
    return [(t, *old_level_minimum(f, x, t, v, f0.value, w, sched.radius(t), sched, rng))
            for t in sched.t_levels()]


def old_parabolic_estimate(f, x, w, dfw, z, sched):
    """The parabolic estimate at one z, one level after another."""
    from epidiff.oracle import _ball_clip, _ball_offsets, _quotients

    x, w, z = (np.asarray(a, dtype=float) for a in (x, w, z))
    f0 = f.value(x).value
    rng = np.random.default_rng(sched.seed)
    records = []
    for t in sched.t_levels():
        half_t2, radius = 0.5 * t * t, sched.radius(t)
        cands = z[None, :] + _ball_offsets(z.shape[0], radius, sched, rng)
        quot = (f.eval_batch(x[None, :] + t * w[None, :] + half_t2 * cands) - f0 - t * dfw) / half_t2
        quot = np.where(np.isfinite(quot), quot, math.inf)
        idx = int(np.argmin(quot))
        m, p = float(quot[idx]), cands[idx]
        if math.isinf(m):
            p = z
            if f.restore_feasible is not None:
                restored = np.asarray(f.restore_feasible((x + t * w + half_t2 * z)[None]), dtype=float)
                z0 = _ball_clip((restored - x - t * w) / half_t2, z[None], radius)
                m0 = _quotients(f.values(x + t * w + half_t2 * z0), f0, t * dfw, half_t2)
                if m0[0] == -math.inf:
                    f.value(x + t * w + half_t2 * z0[0])  # raises
                if math.isfinite(m0[0]):
                    m, p = float(m0[0]), z0[0]

        def score(Zp):
            return _quotients(f.values(x + t * w + half_t2 * Zp), f0, t * dfw, half_t2), Zp

        if math.isfinite(m):
            m, p = old_pattern_refine(score, p, m, z, radius)
            if m == -math.inf:
                f.value(x + t * w + half_t2 * p)  # raises
        records.append((t, m, p))
    return old_stabilize(records)


def old_stabilize(levels):
    """The scalar fold of one estimate's (t, m, p) level records, finest
    last, into an ExtReal: the rule oracle._stabilize applies to each row of
    a stack."""
    tail = levels[-3:]
    finite = [(t, m) for t, m, _ in tail if math.isfinite(m)]
    if not finite:
        return PLUS_INF
    raw = min(m for _, m in finite)
    t_finest = levels[-1][0]
    if raw > 10.0 / t_finest:
        return PLUS_INF
    ms = [m for _, m, _ in tail]
    if all(math.isfinite(m) for m in ms):
        if ms[2] > 100.0 and ms[0] > 0 and ms[2] >= 1.8 * ms[1] >= 1.8 * 1.8 * ms[0]:
            return PLUS_INF
        ts = [t for t, _, _ in tail]
        guess = 0.0  # the Lagrange interpolant at t = 0
        for i, (ti, mi) in enumerate(zip(ts, ms)):
            prod = mi
            for j, tj in enumerate(ts):
                if j != i:
                    prod *= (0.0 - tj) / (ti - tj)
            guess += prod
        spread = max(ms) - min(ms)
        if abs(guess - raw) <= 2.0 * spread + 1e-12 * (1.0 + abs(raw)):
            return ExtReal(guess)
    return ExtReal(raw)


def old_estimate_subderivative(f, x, w, sched):
    """The first-order estimate with its levels valued one at a time and
    folded by old_stabilize: the fixed ray's levels, or, where the ray
    leaves the domain at one of them, the least quotients over the balls."""
    from epidiff.oracle import _ball_offsets

    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    f0 = f.value(x)
    rng = np.random.default_rng(sched.seed)
    levels = []
    for t in sched.t_levels():
        fx = f.value(x + t * w)
        levels.append((t, (fx.value - f0.value) / t if fx.is_finite else math.inf, None))
    if not all(math.isfinite(m) for _, m, _ in levels):
        levels = []
        for t in sched.t_levels():
            cands = w[None, :] + _ball_offsets(w.shape[0], sched.radius(t), sched, rng)
            quot = (f.eval_batch(x[None, :] + t * cands) - f0.value) / t
            m = float(np.min(quot[np.isfinite(quot)])) if np.isfinite(quot).any() else math.inf
            levels.append((t, m, None))
    return old_stabilize(levels)


def old_ball_search(f, x, shift, lin, centers, sched, order, drift=None, polish=False, rescues=0):
    """The ball search before each chunk's batch became one buffer: each
    level's candidates built apart, then scaled and shifted, the levels
    concatenated into one eval_batch and the values split back per level,
    and each argmin point read off the level's candidates."""
    from epidiff.errors import NegativeInfinityDetected
    from epidiff.oracle import Z_BATCH_ROWS, _ball_clip, _pattern_search, _quotients, _schedule_balls

    n, dim = centers.shape
    balls = _schedule_balls(sched, dim)
    k = len(balls)
    ts, radii = np.array([b[0] for b in balls]), np.array([b[1] for b in balls])
    half = 0.5 * ts * ts
    denom = half if order == 2 else ts
    scale = ts if drift is None else half
    bases = np.broadcast_to(x, (k, dim)) if drift is None else x + ts[:, None] * drift
    along = np.ndim(lin) == 1

    def quotients(vals, P, j):
        lin_p = ts[j] * np.vecdot(P, lin) if along else ts[j] * lin
        return _quotients(vals, shift, lin_p, denom[j])

    def score(P, own):
        j = own % k
        return quotients(f.values(bases[j] + scale[j][:, None] * P), P, j), P

    def rescue(P, own):
        j = own % k
        restored = np.asarray(f.restore_feasible(bases[j] + scale[j][:, None] * P), dtype=float)
        back = restored - x if drift is None else (restored - x) - ts[j][:, None] * drift
        cand = _ball_clip(back / scale[j][:, None], centers[own // k], radii[j])
        val, _ = score(cand, own)
        lost = np.isnan(val)
        val[lost] = math.inf
        return val, np.where(lost[:, None], P, cand)

    best, points = np.full((n, k), math.inf), np.repeat(centers[:, None, :], k, axis=1)
    chunk = max(1, Z_BATCH_ROWS // sum(len(offsets) for _, _, offsets in balls))
    for lo in range(0, n, chunk):
        cands = [centers[lo:lo + chunk, None, :] + offsets for _, _, offsets in balls]
        flat = [c.reshape(-1, dim) for c in cands]
        stacks = [b + s * c for b, s, c in zip(bases, scale, flat)]
        vals = f.eval_batch(np.concatenate(stacks))
        parts = np.split(vals, np.cumsum([len(s) for s in stacks])[:-1])
        for j, (c, C, vals) in enumerate(zip(cands, flat, parts)):
            quot = quotients(vals, C, j).reshape(len(c), -1)
            quot[np.isnan(quot)] = math.inf
            rows, idx = np.arange(len(c)), np.argmin(quot, axis=1)
            best[lo:lo + chunk, j], points[lo:lo + chunk, j] = quot[rows, idx], c[rows, idx]
    iz, jz = np.nonzero(best == math.inf)
    points[iz, jz] = centers[iz]
    if f.restore_feasible is not None and iz.size:
        best[iz, jz], points[iz, jz] = rescue(centers[iz], iz * k + jz)
    if polish:
        left = np.full((n, k), rescues if f.restore_feasible is not None else 0)
        left[iz, jz] -= left[iz, jz] > 0
        vals, pts = _pattern_search(score, points.reshape(-1, dim), best.ravel(), centers.repeat(k, axis=0),
                                    np.where(np.isfinite(best), radii, 0.0).ravel(), [lin] if along else [],
                                    rescue=rescue, rescues=left.ravel())
        best, points = np.reshape(vals, (n, k)), pts.reshape(n, k, dim)
    iz, jz = np.nonzero(best == -math.inf)
    if iz.size:
        f.value(bases[jz[0]] + scale[jz[0]] * points[iz[0], jz[0]])
        raise NegativeInfinityDetected(f.description or "sampled function")
    return best, points
