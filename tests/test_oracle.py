import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff import oracle
from epidiff.core import GridSchedule
from epidiff.errors import BasePointInfeasible, CriticalConePreconditionFailed
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
    return SampledFunction(
        lambda x: float(x[0] ** 2), 1, "x^2", batch_evaluator=lambda X: X[:, 0] ** 2
    )


def indicator_line() -> SampledFunction:
    return outer_sampled(nonpositive_orthant(1))


DEEP_IRREGULAR = GridSchedule(t0=0.1, ratio=0.5, steps=21, radius_coeff=1.5, radius_exponent=1.0 / 3.0)


# -- quotients ---------------------------------------------------------------------


def test_delta2_quotient_examples():
    assert delta2_quotient(square(), [0.0], [0.0], 0.1, [1.0]).value == pytest.approx(2.0)
    assert delta2_quotient(indicator_line(), [0.0], [0.0], 0.1, [1.0]).is_plus_inf
    cube = SampledFunction(lambda x: float(x[0] ** 3), 1, "x^3")
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
                restored = np.asarray(f.restore_feasible(x + t * w + half_t2 * z), dtype=float)
                z0 = oracle._ball_clip((restored - x - t * w) / half_t2, z, radius)
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
        lambda y: float(batch(y[None, :])[0]), 2, "axis",
        batch_evaluator=batch if batched else None,
        restore_feasible=lambda y: np.array([y[0], 0.0]),
    )


def _halfspace_quadratic() -> SampledFunction:
    """|y|^2 + y1 y2 on {y1 <= 0.3} in R^5, which takes the random-ball path."""

    def batch(Y):
        vals = np.einsum("ij,ij->i", Y, Y) + Y[:, 0] * Y[:, 1]
        return np.where(Y[:, 0] <= 0.3, vals, math.inf)

    return SampledFunction(lambda y: float(batch(y[None, :])[0]), 5, "halfspace",
                           batch_evaluator=batch)


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
