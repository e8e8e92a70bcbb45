import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff import oracle
from epidiff.core import GridSchedule
from epidiff.errors import BasePointInfeasible, CriticalConePreconditionFailed, NegativeInfinityDetected
from epidiff.extreal import ExtReal, PLUS_INF
from epidiff.oracle import (
    SampledFunction,
    check_parabolic_regularity,
    check_twice_epi_diff,
    delta2_quotient,
    estimate_parabolic_subderivative,
    estimate_second_subderivative,
    estimate_subderivative,
    proximal_modulus_scan,
)
from epidiff.composite import sampled_objective
from epidiff.outer import absolute_value, nonpositive_orthant

from _instances import a1_problem, example35_function, outer_sampled


def square() -> SampledFunction:
    return SampledFunction(lambda X: X[:, 0] ** 2, 1, "x^2")


def indicator_line() -> SampledFunction:
    return outer_sampled(nonpositive_orthant(1))


DEEP_IRREGULAR = GridSchedule(t0=0.1, ratio=0.5, steps=21, radius_coeff=1.5, radius_exponent=1.0 / 3.0)


# -- quotients ---------------------------------------------------------------------


def test_delta2_quotient_examples():
    assert delta2_quotient(square(), [0.0], [0.0], 0.1, [1.0]).value == pytest.approx(2.0)
    assert delta2_quotient(indicator_line(), [0.0], [0.0], 0.1, [1.0]).is_plus_inf
    cube = SampledFunction(lambda X: X[:, 0] ** 3, 1, "x^3")
    assert delta2_quotient(cube, [0.0], [0.0], 0.1, [1.0]).value == pytest.approx(0.2)
    with pytest.raises(BasePointInfeasible):
        delta2_quotient(indicator_line(), [1.0], [0.0], 0.1, [1.0])


# -- second subderivative estimates ---------------------------------------------------


def test_estimate_quadratic():
    est = estimate_second_subderivative(square(), [0.0], [0.0], [1.0])
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_estimate_irregular_benchmark():
    f = example35_function()
    est = estimate_second_subderivative(f, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], DEEP_IRREGULAR)
    assert est.value == pytest.approx(-2.0, abs=0.05)
    off = estimate_second_subderivative(f, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], DEEP_IRREGULAR)
    assert off.is_plus_inf


def test_estimate_composite_domain():
    f = sampled_objective(a1_problem())
    est = estimate_second_subderivative(f, [0.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    assert est.value == pytest.approx(-2.0, abs=0.05)
    assert estimate_second_subderivative(f, [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]).is_plus_inf


# -- parabolic estimates ---------------------------------------------------------------


def test_parabolic_estimates():
    assert estimate_parabolic_subderivative(square(), [0.0], [1.0], 0.0, [0.0]).value == pytest.approx(
        2.0, abs=1e-6
    )
    ind = indicator_line()
    assert estimate_parabolic_subderivative(ind, [0.0], [0.0], 0.0, [-1.0]).value == 0.0
    assert estimate_parabolic_subderivative(ind, [0.0], [0.0], 0.0, [1.0]).is_plus_inf
    gabs = outer_sampled(absolute_value())
    val = estimate_parabolic_subderivative(gabs, [0.0], [1.0], 1.0, [3.0])
    assert val.value == pytest.approx(3.0, abs=1e-6)


# -- batched parabolic scores -----------------------------------------------------------


def _fresh_ball(dim, radius, k, rng):
    """Ball offsets built afresh, the way the level search built them before
    the grid balls were cached."""
    if radius <= 0:
        return np.zeros((1, dim))
    if dim <= oracle.GRID_DIM_LIMIT:
        axis = np.linspace(-radius, radius, k)
        mesh = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        mesh = mesh[np.linalg.norm(mesh, axis=1) <= radius * (1 + 1e-12)]
    else:
        raw = rng.standard_normal((oracle.RANDOM_BALL_SAMPLES, dim))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
        radii = radius * rng.random(oracle.RANDOM_BALL_SAMPLES) ** (1.0 / dim)
        mesh = raw * radii[:, None]
    return np.vstack([np.zeros((1, dim)), mesh])


def _old_ball_clip(p, center, radius):
    """The one-point ball clip the stacked one replaces."""
    off = p - center
    nrm = float(np.linalg.norm(off))
    if nrm <= radius or radius <= 0:
        return p
    return center + off * (radius / nrm)


def _unpolished_scores(f, x, w, dfw, v, Z, sched):
    """The per-z loop the batched scorer replaces: for each z, the parabolic
    estimate without pattern search (a fresh rng, f(x) and ball per call),
    minus <z, v>."""
    out = []
    for z in Z:
        f0 = f.value(x)
        rng = np.random.default_rng(sched.seed)
        records = []
        for t in sched.t_levels():
            half_t2 = 0.5 * t * t
            radius = sched.radius(t)
            cands = z[None, :] + _fresh_ball(z.shape[0], radius, sched.samples_per_axis, rng)
            vals = f.eval_batch(x[None, :] + t * w[None, :] + half_t2 * cands)
            quot = (vals - f0.value - t * dfw) / half_t2
            finite_mask = np.isfinite(quot)
            m = math.inf
            if finite_mask.any():
                m = float(quot[int(np.argmin(np.where(finite_mask, quot, math.inf)))])
            elif f.restore_feasible is not None:
                restored = np.asarray(f.restore_feasible((x + t * w + half_t2 * z)[None])[0])
                z0 = _old_ball_clip((restored - x - t * w) / half_t2, z, radius)
                fx = f.value(x + t * w + half_t2 * z0)
                m0 = (fx.value - f0.value - t * dfw) / half_t2 if fx.is_finite else math.inf
                if math.isfinite(m0):
                    m = m0
            records.append((t, m, z))
        out.append(oracle._stabilize(records, sched).as_float() - float(z @ v))
    return np.array(out)


def _on_the_axis(batched: bool) -> SampledFunction:
    """y1^2 - y1 on the axis {y2 = 0}, +inf off it, restored by y2 := 0: a z
    with z2 != 0 sees an all-infinite ball at every level, and the rescue
    succeeds while the ball still reaches the axis."""

    def batch(Y):
        return np.where(Y[:, 1] == 0.0, Y[:, 0] ** 2 - Y[:, 0], math.inf)

    return SampledFunction(
        batch, 2, "axis",
        batch_evaluator=batch if batched else None,
        restore_feasible=lambda Y: np.column_stack([Y[:, 0], np.zeros(len(Y))]),
    )


def _halfspace_quadratic() -> SampledFunction:
    """|y|^2 + y1 y2 on {y1 <= 0.3} in R^5, which takes the random-ball path."""

    def batch(Y):
        vals = np.einsum("ij,ij->i", Y, Y) + Y[:, 0] * Y[:, 1]
        return np.where(Y[:, 0] <= 0.3, vals, math.inf)

    return SampledFunction(batch, 5, "halfspace")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(["axis", "axis-unbatched", "dim5"]),
    k=st.sampled_from([3, 5, 7]),
    radius_coeff=st.sampled_from([1.0, 4.0]),
    size=st.sampled_from(["one", "few", "chunks"]),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_parabolic_scores_match_per_z_estimates(case, k, radius_coeff, size, seed):
    """The batched scorer equals, bit for bit, one unpolished estimate per z,
    and makes one batched evaluation per level and chunk."""
    rng = np.random.default_rng(seed)
    sched = GridSchedule(t0=0.1, steps=4, samples_per_axis=k, radius_coeff=radius_coeff, seed=seed)
    if case == "dim5":
        f, x, w = _halfspace_quadratic(), np.full(5, 0.1), np.eye(5)[0]
    else:
        f, x, w = _on_the_axis(case == "axis"), np.array([0.3, 0.0]), np.array([1.0, 0.0])
    dim = f.dim
    rows = max(len(_fresh_ball(dim, sched.radius(t), k, rng)) for t in sched.t_levels())
    chunk = max(1, oracle.Z_BATCH_ROWS // rows)
    n = {"one": 1, "few": 4, "chunks": 2 * chunk + 3}[size]
    Z = rng.uniform(-3.0, 3.0, size=(n, dim))
    if case != "dim5":
        Z[:, 1] = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-0.5, 0.5, n))
    v, dfw = rng.standard_normal(dim), float(rng.standard_normal())
    batches = []
    eval_batch = f.eval_batch
    f.eval_batch = lambda X: batches.append(len(X)) or eval_batch(X)
    got = oracle._parabolic_scores(f, x, w, dfw, v, Z, sched)
    f.eval_batch = eval_batch
    assert len(batches) == sched.steps * -(-n // chunk)
    assert max(batches) <= oracle.Z_BATCH_ROWS or chunk == 1
    ref = _unpolished_scores(f, x, w, dfw, v, Z, sched)
    assert got.shape == (n,) and got.tobytes() == ref.tobytes()


def test_grid_balls_are_cached_read_only_and_exact():
    """Grid balls equal a fresh linspace/meshgrid build bit for bit (not a
    scaled unit ball) and are shared read-only; above GRID_DIM_LIMIT every
    call draws anew from the rng."""
    rng = np.random.default_rng(0)
    for dim, radius, k in [(1, 0.4, 9), (2, 1.0 / 3.0, 7), (2, 0.0125, 5), (3, 0.7, 4),
                           (3, 4.0 * 0.1 * 0.5 ** 9, 9), (4, 0.3, 5)]:
        sched = GridSchedule(samples_per_axis=k)
        ball = oracle._ball_offsets(dim, radius, sched, rng)
        fresh = _fresh_ball(dim, radius, k, rng)
        assert ball.shape == fresh.shape and ball.tobytes() == fresh.tobytes()
        assert not ball.flags.writeable
        assert oracle._ball_offsets(dim, radius, sched, rng) is ball
        with pytest.raises(ValueError):
            ball[0, 0] = 1.0
    sched = GridSchedule()
    drawn, ref = np.random.default_rng(3), np.random.default_rng(3)
    first = oracle._ball_offsets(5, 0.3, sched, drawn)
    second = oracle._ball_offsets(5, 0.3, sched, drawn)
    assert first.tobytes() == _fresh_ball(5, 0.3, 9, ref).tobytes()
    assert second.tobytes() == _fresh_ball(5, 0.3, 9, ref).tobytes()
    assert not np.array_equal(first, second)


# -- subderivative helper ------------------------------------------------------------------


def test_estimate_subderivative():
    gabs = outer_sampled(absolute_value())
    assert estimate_subderivative(gabs, [0.0], [1.0]).value == pytest.approx(1.0, abs=1e-9)
    assert estimate_subderivative(square(), [0.0], [1.0]).value == pytest.approx(0.0, abs=1e-9)
    assert estimate_subderivative(indicator_line(), [0.0], [1.0]).is_plus_inf


# -- recovery sequences ----------------------------------------------------------------------


def test_twice_epi_diff_quadratic():
    reps = check_twice_epi_diff(
        square(), [0.0], [0.0], [[1.0], [-2.0]], formula=lambda w: ExtReal(2.0 * w[0] ** 2)
    )
    for rep in reps:
        assert rep.converged and rep.gap <= 1e-6


def test_twice_epi_diff_composite_recovery_sequence():
    f = sampled_objective(a1_problem())
    reps = check_twice_epi_diff(
        f,
        [0.0, 0.0],
        [0.0, 1.0],
        [[1.0, 0.0]],
        formula=lambda w: ExtReal(-2.0 * w[0] ** 2),
    )
    rep = reps[0]
    assert rep.converged
    # the recovery sequence slides along the constraint surface: w_k = (1, t_k)
    for t, w_k, quot in rep.achieving_sequence[-3:]:
        assert math.isfinite(quot)
        assert w_k[1] == pytest.approx(t, rel=0.5)


def test_twice_epi_diff_plus_inf_branch():
    f = sampled_objective(a1_problem())
    reps = check_twice_epi_diff(f, [0.0, 0.0], [0.0, 1.0], [[0.0, 1.0]], formula=lambda w: PLUS_INF)
    assert reps[0].converged and reps[0].oracle_value.is_plus_inf and reps[0].gap == 0.0


def test_twice_epi_diff_detects_wrong_formula():
    reps = check_twice_epi_diff(
        square(), [0.0], [0.0], [[1.0]], formula=lambda w: ExtReal(3.0)
    )
    assert not reps[0].converged


# -- parabolic regularity ------------------------------------------------------------------------


def test_parabolic_regularity_quadratic():
    holds, lhs, rhs = check_parabolic_regularity(square(), [0.0], [0.0], [1.0])
    assert holds
    assert lhs.value == pytest.approx(2.0, abs=1e-6)
    assert rhs.value == pytest.approx(2.0, abs=0.05)


def test_parabolic_regularity_composite():
    f = sampled_objective(a1_problem())
    holds, lhs, rhs = check_parabolic_regularity(f, [0.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    assert holds
    assert lhs.value == pytest.approx(-2.0, abs=0.05)
    assert rhs.value == pytest.approx(-2.0, abs=0.05)


def test_parabolic_regularity_abs():
    gabs = outer_sampled(absolute_value())
    holds, lhs, rhs = check_parabolic_regularity(gabs, [0.0], [1.0], [1.0])
    assert holds and lhs.value == pytest.approx(0.0, abs=1e-6)
    assert rhs.value == pytest.approx(0.0, abs=0.05)


def test_parabolic_regularity_precondition():
    with pytest.raises(CriticalConePreconditionFailed):
        check_parabolic_regularity(outer_sampled(absolute_value()), [0.0], [1.0], [-1.0])


# -- invariants & properties ------------------------------------------------------------------------


def test_monotone_refinement():
    coarse = GridSchedule()
    fine = GridSchedule(t0=coarse.t0 / 2, steps=2 * coarse.steps)
    cases = [
        (square(), [0.0], [0.0], [1.0]),
        (sampled_objective(a1_problem()), [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]),
        (outer_sampled(absolute_value()), [0.0], [1.0], [1.0]),
    ]
    for f, x, v, w in cases:
        e_coarse = estimate_second_subderivative(f, x, v, w, coarse)
        e_fine = estimate_second_subderivative(f, x, v, w, fine)
        assert e_fine.value <= e_coarse.value + 0.05


def test_plus_inf_consistency_off_critical_cone():
    f = sampled_objective(a1_problem())
    # d f(x)(w) = +inf along (0,1); the estimate must diverge to PlusInf
    sub = estimate_subderivative(f, [0.0, 0.0], [0.0, 1.0])
    assert sub.is_plus_inf
    assert estimate_second_subderivative(f, [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]).is_plus_inf
    # finite subderivative mismatching the pairing also diverges
    gabs = outer_sampled(absolute_value())
    assert estimate_second_subderivative(gabs, [0.0], [1.0], [-1.0]).is_plus_inf


def test_lower_bound_law():
    cases = [
        (square(), [0.0], [0.0]),
        (outer_sampled(absolute_value()), [0.0], [1.0]),
        (sampled_objective(a1_problem()), [0.0, 0.0], [0.0, 1.0]),
    ]
    rng = np.random.default_rng(21)
    for f, x, v in cases:
        r_hat = proximal_modulus_scan(f, x, v, radius=0.3, n_samples=150, seed=5)
        for _ in range(20):
            w = rng.standard_normal(f.dim)
            est = estimate_second_subderivative(f, x, v, w)
            if est.is_finite:
                assert est.value >= -r_hat * float(w @ w) - 0.05 * (1 + float(w @ w))


# -- windowed pattern search ---------------------------------------------------------------


def _old_pattern_refine(q, start, f_start, center, radius, extra_dirs=(), max_evals=700):
    """The one-trial-per-call cyclic search the windowed one replaced, kept as
    the reference; q maps one point to (value, point evaluated)."""
    dim = center.shape[0]
    dirs = [np.eye(dim)[i] for i in range(dim)]
    for d in extra_dirs:
        nrm = float(np.linalg.norm(d))
        if nrm > 1e-12:
            dirs.append(np.asarray(d, dtype=float) / nrm)
    best_p, best_f = start, f_start
    evals = 0
    for _ in range(8):
        round_start = best_f
        improved = False
        for dvec in dirs:
            step = radius / 2.0
            while step > radius * 1e-9 and evals < max_evals:
                moved = False
                for sgn in (1.0, -1.0):
                    cand = _old_ball_clip(best_p + sgn * step * dvec, center, radius)
                    val, pt = q(cand)
                    evals += 1
                    if val < best_f - 1e-15 * (1.0 + abs(best_f)):
                        best_p, best_f = pt, val
                        moved = True
                        improved = True
                        break
                if not moved:
                    step *= 0.5
            if evals >= max_evals:
                break
        stale = round_start - best_f <= 1e-10 * (1.0 + abs(round_start))
        if not improved or stale or evals >= max_evals:
            break
    return best_f, best_p


def _old_level_minimum(f, base_point, t, lin_coeff, lin_shift, center, radius, sched, rng, budget):
    """The level search with its one-point scorer q, as before the windows."""
    half_t2 = 0.5 * t * t
    offsets = oracle._ball_offsets(center.shape[0], radius, sched, rng)
    cands = center[None, :] + offsets
    vals = f.eval_batch(base_point[None, :] + t * cands)
    quot = (vals - lin_shift - t * (cands @ lin_coeff)) / half_t2
    finite_mask = np.isfinite(quot)
    restore_budget = [budget]

    def q(p):
        fx = f.value(base_point + t * p)
        if fx.is_finite:
            return (fx.value - lin_shift - t * float(lin_coeff @ p)) / half_t2, p
        if f.restore_feasible is None or restore_budget[0] <= 0:
            return math.inf, p
        restore_budget[0] -= 1
        restored = np.asarray(f.restore_feasible((base_point + t * p)[None])[0], dtype=float)
        cand = _old_ball_clip((restored - base_point) / t, center, radius)
        fx = f.value(base_point + t * cand)
        if not fx.is_finite:
            return math.inf, p
        return (fx.value - lin_shift - t * float(lin_coeff @ cand)) / half_t2, cand

    if not finite_mask.any():
        if f.restore_feasible is None:
            return math.inf, center
        val0, p0 = q(center)
        if not math.isfinite(val0):
            return math.inf, center
        start, f_start = p0, val0
    else:
        idx = int(np.argmin(np.where(finite_mask, quot, math.inf)))
        start, f_start = cands[idx], float(quot[idx])
    extra = [lin_coeff] if float(np.linalg.norm(lin_coeff)) > 0 else []
    return _old_pattern_refine(q, start, f_start, center, radius, extra_dirs=extra)


def _trapped_bowl(dim, target, wall, trap, restore):
    """|y - target|^2 on {y_0 <= wall}, +inf beyond, and -1e16 (below
    NEG_GUARD) on the slab trap[0] < y_0 < trap[1]; restored by clipping y_0
    to the wall."""

    def ev(Y):
        vals = np.sum((Y - target) ** 2, axis=1)
        vals = np.where(Y[:, 0] <= wall, vals, math.inf)
        return np.where((Y[:, 0] > trap[0]) & (Y[:, 0] < trap[1]), -1e16, vals)

    def clip(Y):
        out = np.array(Y, dtype=float)
        out[:, 0] = np.minimum(out[:, 0], wall)
        return out

    return SampledFunction(ev, dim, "trapped bowl", restore_feasible=clip if restore else None)


def _outcome(fn):
    try:
        m, p = fn()
    except NegativeInfinityDetected:
        return "raised"
    return float(m), np.asarray(p, dtype=float).tolist()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(1, 3),
    budget=st.sampled_from([0, 1, 2, 3, 5, 150]),
    restore=st.booleans(),
    trapped=st.booleans(),
    lin=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_windowed_level_search_matches_the_sequential_one(dim, budget, restore, trapped, lin, seed):
    """Scoring each step ladder in windows, and rescuing the infeasible
    trial points ahead of a window's first finite improvement in one stack,
    gives the sequential search's minimum and argmin bit for bit, with the
    same restoration budget; a trial point below NEG_GUARD raises exactly
    when the sequential search valued it."""
    rng = np.random.default_rng(seed)
    target = rng.uniform(-1.0, 1.0, dim)
    wall = float(rng.uniform(-1.0, 0.6))
    lo = float(rng.uniform(-1.0, 1.0))
    trap = (lo, lo + 0.05) if trapped else (math.inf, math.inf)
    f = _trapped_bowl(dim, target, wall, trap, restore)
    sched = GridSchedule(t0=0.5, steps=3, samples_per_axis=3, radius_coeff=2.0, seed=seed)
    base = np.zeros(dim)
    center = rng.uniform(-1.0, 1.0, dim)
    lin_coeff = rng.standard_normal(dim) if lin else np.zeros(dim)
    t, radius = 0.5, 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "RESTORE_BUDGET", budget)
        got = _outcome(lambda: oracle._level_minimum(
            f, base, t, lin_coeff, 0.1, center, radius, sched, np.random.default_rng(seed)))
    ref = _outcome(lambda: _old_level_minimum(
        f, base, t, lin_coeff, 0.1, center, radius, sched, np.random.default_rng(seed), budget))
    assert got == ref


def test_windowed_search_ignores_a_failed_row_past_its_stop():
    """From 0 the ladder reaches -0.25 (an improvement) before +0.125, which
    lies below NEG_GUARD; both share the second window, but the sequential
    search never values +0.125, so neither search raises."""
    f = _trapped_bowl(1, np.array([-0.2]), 10.0, (0.1, 0.15), False)
    windows = []

    def score(P):
        windows.append(P[:, 0].tolist())
        return oracle._quotients(f.values(P), 0.0, 0.0, 1.0), P

    def q(p):
        return f.value(p).value, p

    center, start = np.zeros(1), np.zeros(1)
    f0 = f.value(start).value
    got = oracle._pattern_refine(score, start, f0, center, 1.0)
    assert any(0.1 < x < 0.15 for x in windows[1])
    assert got[0] == _old_pattern_refine(q, start, f0, center, 1.0)[0] > -math.inf


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    max_evals=st.integers(1, 120),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2 ** 16),
)
def test_windowed_search_stops_at_the_sequential_evaluation_count(max_evals, dim, seed):
    """With every max_evals the windowed search ends where the sequential one
    does, so both count the same evaluations; and it makes one scorer call
    per window, never more than the sequential search makes."""
    rng = np.random.default_rng(seed)
    target = rng.uniform(-1.0, 1.0, dim)
    f = _trapped_bowl(dim, target, 10.0, (math.inf, math.inf), False)
    calls = [0, 0]

    def score(P):
        calls[0] += 1
        return oracle._quotients(f.values(P), 0.0, 0.0, 1.0), P

    def q(p):
        calls[1] += 1
        return f.value(p).value, p

    center = rng.uniform(-0.5, 0.5, dim)
    f0 = f.value(center).value
    got = oracle._pattern_refine(score, center, f0, center, 1.0, max_evals=max_evals)
    ref = _old_pattern_refine(q, center, f0, center, 1.0, max_evals=max_evals)
    assert got[0] == ref[0] and np.array_equal(got[1], ref[1])
    assert calls[0] <= calls[1]


# -- stack values against point values ------------------------------------------------------


def _catalog_members():
    from epidiff.outer import NegSemidefIndicator, alpha_eig, max_eig, sum_top_eig, zero_function
    from epidiff.outer.smooth import SmoothQuadratic
    from epidiff.core import PolyMap
    from epidiff.numkit import Polyhedron, svec
    from epidiff.outer import PolyhedralIndicator
    from _instances import half_square_plq, max_of_coordinates_plq

    wedge = Polyhedron.make(3, G=[[1.0, 1.0, 0.0], [-1.0, 2.0, 0.5]], h=[0.2, 0.1], E=[[0.0, 1.0, 1.0]], d=[0.0])
    return {
        "ind_nonpos": nonpositive_orthant(3),
        "ind_polyhedron": PolyhedralIndicator(wedge),
        "abs": absolute_value(),
        "plq": half_square_plq(),
        "plq_max": max_of_coordinates_plq(),
        "ind_negsemidef": NegSemidefIndicator(3),
        "max_eig": max_eig(3),
        "sum_top_eig": sum_top_eig(3, 2),
        "alpha_eig": alpha_eig(3, 2, svec(np.diag([2.0, 1.0, 1.0]))),
        "twice_semidiff": SmoothQuadratic(
            PolyMap.from_strings([["x1^2", "0.5 x2 x3", "x3^3"]], 3),
            PolyMap.from_strings([["x1^2", "x2^2", "0.25 x1 x3"]], 3),
        ),
        "zero": zero_function(2),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    tag=st.sampled_from(sorted(_catalog_members())),
    rows=st.integers(1, 5),
    scale=st.sampled_from([1e-3, 0.3, 2.0]),
    seed=st.integers(0, 2 ** 16),
)
def test_stack_values_equal_point_values_on_every_catalog_member(tag, rows, scale, seed):
    """g.value at a point equals its g.value_batch row bit for bit, and so
    SampledFunction.value of g(F(.)) equals eval_batch(x[None])[0] and its
    values() row, for every catalog member with a linear F.  (A nonlinear F
    is valued in a batch by the array power, which can differ from the point
    value in the last bit; values() uses the point power table.)"""
    from epidiff.core import CompositeProblem, PolyMap

    g = _catalog_members()[tag]
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((rows, g.ambient_dim)) * scale
    if tag.startswith("ind_"):
        Z[0] = g.domain_project(Z[0])
    batch = g.value_batch(Z)
    for z, b in zip(Z, batch):
        assert g.value(z).as_float() == b or (math.isinf(b) and g.value(z).is_plus_inf)
    A = rng.standard_normal((g.ambient_dim, g.ambient_dim))
    F = PolyMap.linear(A)
    f = sampled_objective(CompositeProblem(PolyMap.zero(g.ambient_dim), F, g))
    X = np.linalg.solve(A, Z.T).T
    stack = f.values(X)
    for x, s in zip(X, stack):
        v = f.value(x).as_float()
        assert _same_float(v, f.eval_batch(x[None])[0]) and _same_float(v, s)


def _same_float(a, b) -> bool:
    return np.array_equal(np.float64(a).view(np.int64), np.float64(b).view(np.int64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(1, 3),
    budget=st.sampled_from([0, 1, 2, 3, 5, 10, 40]),
    max_evals=st.sampled_from([30, 200, 700]),
    seed=st.integers(0, 2 ** 16),
)
def test_windowed_search_spends_the_rescue_budget_of_the_sequential_one(dim, budget, max_evals, seed):
    """On a rugged landscape with scattered holes whose rescue often wins,
    the windowed search spends its rescues where the sequential search does:
    rescued rows past a window's stop are not charged, so both searches run
    out of rescues at the same trial point and end at the same minimum."""
    rng = np.random.default_rng(seed)
    target, w1, w2 = rng.uniform(-1, 1, dim), rng.standard_normal(dim), rng.standard_normal(dim)

    def value(p):
        if math.sin(37.0 * float(p @ w1)) > 0.2:
            return math.nan  # a hole: outside the domain
        return float((p - target) @ (p - target)) + 0.1 * math.cos(13.0 * float(p @ w2))

    def rescued(p):
        q = 0.9 * p
        return float((q - target) @ (q - target)) - 0.05, q

    def score(P):
        return np.array([value(p) for p in P]), P

    def rescue(P):
        vals, pts = zip(*(rescued(p) for p in P))
        return np.array(vals), np.array(pts)

    left = [budget]

    def q(p):
        v = value(p)
        if not math.isnan(v):
            return v, p
        if left[0] <= 0:
            return math.inf, p
        left[0] -= 1
        return rescued(p)

    center = rng.uniform(-0.5, 0.5, dim)
    start, f0 = center, float((center - target) @ (center - target)) + 1.0
    got = oracle._pattern_refine(score, start, f0, center, 1.0, max_evals=max_evals,
                                 rescue=rescue, rescues=budget)
    ref = _old_pattern_refine(q, start, f0, center, 1.0, max_evals=max_evals)
    assert got[0] == ref[0] and np.array_equal(got[1], ref[1])
