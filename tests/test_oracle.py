import ast
import json
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff import oracle
from epidiff.core import GridSchedule
from epidiff.errors import (
    BasePointInfeasible,
    CriticalConePreconditionFailed,
    EpidiffError,
    NegativeInfinityDetected,
    UndefinedValue,
)
from epidiff.extreal import ExtReal, PLUS_INF
from epidiff.numkit import ball_steps
from epidiff.oracle import (
    SampledFunction,
    check_parabolic_regularity,
    check_twice_epi_diff,
    estimate_parabolic_subderivative,
    estimate_second_subderivative,
    estimate_subderivative,
    proximal_modulus_scan,
)
from epidiff.cli import run
from epidiff.composite import sampled_objective
from epidiff.outer import absolute_value, nonpositive_orthant

from _instances import (
    a1_problem,
    example35_function,
    old_ball_search,
    old_estimate_subderivative,
    old_level_minimum,
    old_parabolic_estimate,
    old_second_order_levels,
    old_stabilize,
    outer_sampled,
)


def square() -> SampledFunction:
    return SampledFunction(lambda X: X[:, 0] ** 2, 1, "x^2")


def indicator_line() -> SampledFunction:
    return outer_sampled(nonpositive_orthant(1))


SRC = Path(__file__).resolve().parent.parent / "src" / "epidiff"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

DEEP_IRREGULAR = GridSchedule(t0=0.1, ratio=0.5, steps=21, radius_coeff=1.5, radius_exponent=1.0 / 3.0)


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


def test_estimate_at_an_infeasible_base_point_raises():
    with pytest.raises(BasePointInfeasible):
        estimate_second_subderivative(indicator_line(), [1.0], [0.0], [1.0])


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


# -- stacked ball searches --------------------------------------------------------------


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


def _recording(f):
    """f whose evaluator records every stack it values, and that list."""
    valued = []
    return replace(f, evaluator=lambda X: valued.append(X.copy()) or f.evaluator(X)), valued


def _outside_the_finest_levels(valued, x, centers, sched, drift=None) -> int:
    """How many valued rows, other than x, lie in no search ball of the
    levels of sched: x + t*p (x + t*drift + t^2/2*p with a drift) with p
    within sched.radius(t) of a center."""
    Y = np.concatenate(valued)
    Y = Y[np.any(Y != x, axis=1)]
    inside = np.zeros(len(Y), dtype=bool)
    for t in sched.t_levels():
        P = (Y - x) / t if drift is None else (Y - x - t * drift) / (0.5 * t * t)
        dist = np.linalg.norm(P[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        inside |= dist <= sched.radius(t) * (1 + 1e-9) + 1e-9
    return int((~inside).sum())


def _on_the_axis() -> SampledFunction:
    """y1^2 - y1 on the axis {y2 = 0}, +inf off it, restored by y2 := 0: a z
    with z2 != 0 sees an all-infinite ball at every level, and the rescue
    succeeds while the ball still reaches the axis."""

    def batch(Y):
        return np.where(Y[:, 1] == 0.0, Y[:, 0] ** 2 - Y[:, 0], math.inf)

    return SampledFunction(
        batch, 2, "axis",
        restore_feasible=lambda Y: np.column_stack([Y[:, 0], np.zeros(len(Y))]),
    )


def _halfspace_quadratic() -> SampledFunction:
    """|y|^2 + y1 y2 on {y1 <= 0.3} in R^5, which takes the random-ball path."""

    def batch(Y):
        vals = np.einsum("ij,ij->i", Y, Y) + Y[:, 0] * Y[:, 1]
        return np.where(Y[:, 0] <= 0.3, vals, math.inf)

    return SampledFunction(batch, 5, "halfspace")


def _halfspace_cube() -> SampledFunction:
    """|y|^2 + y1 y2 + |y3| on {y1 <= 0.3} in R^3, restored by clipping y1."""

    def batch(Y):
        vals = np.einsum("ij,ij->i", Y, Y) + Y[:, 0] * Y[:, 1] + np.abs(Y[:, 2])
        return np.where(Y[:, 0] <= 0.3, vals, math.inf)

    return SampledFunction(
        batch, 3, "halfspace cube",
        restore_feasible=lambda Y: np.column_stack([np.minimum(Y[:, 0], 0.3), Y[:, 1:]]),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(["axis", "cube", "dim5"]),
    order=st.sampled_from([1, 2]),
    drift=st.booleans(),
    along=st.booleans(),
    polish=st.sampled_from(["none", "unrestored", "no rescues", "rescues"]),
    n=st.integers(1, 7),
    batch_rows=st.sampled_from([oracle.Z_BATCH_ROWS, 150]),
    seed=st.integers(0, 2 ** 16),
)
def test_the_one_buffer_ball_batch_equals_the_split_batch(case, order, drift, along, polish, n,
                                                         batch_rows, seed):
    """_ball_search, which builds each chunk's ball batch in one buffer and
    reads each level off views of it, returns the minima and points of the
    search that built every level apart and split one batch's values back
    per level (old_ball_search), bit for bit: orders 1 and 2, with and
    without a drift, a vector or a scalar lin, polished with and without
    rescues, on grid and random balls, and on chunks that do not divide
    the centers."""
    rng = np.random.default_rng(seed)
    f, x = {"axis": (_on_the_axis(), np.array([0.3, 0.0])),
            "cube": (_halfspace_cube(), np.array([0.25, -0.1, 0.0])),
            "dim5": (_halfspace_quadratic(), np.full(5, 0.1))}[case]
    if polish == "unrestored":
        f = replace(f, restore_feasible=None)
    centers = rng.uniform(-2.0, 2.0, (n, f.dim))
    if case == "axis":
        centers[:, 1] = np.where(rng.random(n) < 0.5, 0.0, centers[:, 1])
    sched = GridSchedule(t0=0.1, steps=4, samples_per_axis=int(rng.choice([3, 5])),
                         radius_coeff=float(rng.choice([1.0, 4.0])), seed=seed)
    args = (f, x, f.value(x).value, rng.standard_normal(f.dim) if along else float(rng.standard_normal()),
            centers, sched, order)
    kwargs = dict(drift=rng.standard_normal(f.dim) if drift else None, polish=polish != "none",
                  rescues=3 if polish == "rescues" else 0)
    with mock.patch.object(oracle, "Z_BATCH_ROWS", batch_rows):
        got, ref = oracle._ball_search(*args, **kwargs), old_ball_search(*args, **kwargs)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, ref))


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


def test_fixed_ray_levels_in_one_stack_equal_the_levels_one_by_one():
    """The fixed ray's levels are valued in one stack, and the ball fallback's
    in one batch: the estimates equal valuing them level by level, bit for
    bit, and where valuing the levels one by one raises, the stack raises
    what the first such level raises (NaN: UndefinedValue; below NEG_GUARD:
    NegativeInfinityDetected)."""
    sched = GridSchedule(t0=0.1, steps=5, samples_per_axis=5, seed=4)
    cases = [(outer_sampled(absolute_value()), [0.0], [1.0]), (indicator_line(), [0.0], [1.0]),
             (indicator_line(), [0.0], [-1.0]), (example35_function(), [0.0, 0.0], [1.0, 0.5]),
             (sampled_objective(a1_problem()), [0.0, 0.0], [0.6, 0.8]),
             (_halfspace_quadratic(), np.full(5, 0.1), np.eye(5)[0])]
    for f, x, w in cases:
        got, ref = estimate_subderivative(f, x, w, sched), old_estimate_subderivative(f, x, w, sched)
        assert _same_float(got.as_float(), ref.as_float())
    for first, later, exc in [(math.nan, -1e16, UndefinedValue), (-1e16, math.nan, NegativeInfinityDetected)]:
        # the levels value y = 0.025, 0.0125, 0.00625: only the first lies above 0.02
        f = SampledFunction(lambda Y, a=first, b=later: np.where(
            Y[:, 0] > 0.02, a, np.where((Y[:, 0] > 0.0) & (Y[:, 0] < 0.01), b, Y[:, 0])), 1)
        for estimate in (estimate_subderivative, old_estimate_subderivative):
            with pytest.raises(exc):
                estimate(f, [0.0], [1.0], sched)
        # y = 0.1 and 0.05 are the steps t0 and t0 * ratio of the ladder,
        # which the schedule does not hold: a stripe there is never valued
        f = SampledFunction(lambda Y, a=first: np.where(Y[:, 0] > 0.04, a, Y[:, 0]), 1)
        assert estimate_subderivative(f, [0.0], [1.0], sched).value == pytest.approx(1.0)


def test_the_first_order_fallback_restores_nothing():
    """A ray that leaves the domain falls back on the balls about it, and
    an all-infinite ball stays +inf: restore_feasible is never called, and
    the estimate equals the per-level one bit for bit.  The schedules mix
    finite and all-infinite levels in the three finest."""
    calls = []
    a1 = sampled_objective(a1_problem())
    curved = replace(a1, restore_feasible=lambda Y: calls.append(Y) or a1.restore_feasible(Y))
    halfline = SampledFunction(lambda Y: np.where(Y[:, 0] <= 0.0, Y[:, 0], math.inf), 1,
                               restore_feasible=lambda Y: calls.append(Y) or np.minimum(Y, 0.0))
    cases = [(curved, [0.0, 1.0], GridSchedule(t0=0.5, steps=3, samples_per_axis=5), 0.0),
             (curved, [0.6, 0.8], GridSchedule(t0=0.5, steps=4, samples_per_axis=5), 0.0),
             (curved, [0.0, 1.0], GridSchedule(t0=0.1, steps=5, samples_per_axis=5), math.inf),
             (halfline, [1.0], GridSchedule(t0=0.5, steps=3, samples_per_axis=5), -1.0)]
    for f, w, sched, expected in cases:
        x, w = np.zeros(f.dim), np.array(w)
        got, ref = estimate_subderivative(f, x, w, sched), old_estimate_subderivative(f, x, w, sched)
        assert _same_float(got.as_float(), ref.as_float()) and got.as_float() == expected
    assert calls == []


def test_the_first_order_fallback_pairs_its_minima_with_the_finest_levels():
    """1000|y1| on {y2 <= -y1^2}, along w = (1, 0): the fixed ray leaves
    the domain at every level, and the ball fallback's minima 1000 (1 - 2t)
    differ by level.  _stabilize reads t through the level ratios and
    through the 1/t test of the finest level; the minima, near 1000, pass
    that test at the finest level of six (10/t = 3200) and fail it at the
    third-coarsest (400), so they must be paired with the finest levels.
    The estimate equals the per-level one bit for bit."""
    f = SampledFunction(lambda Y: np.where(Y[:, 1] <= -Y[:, 0] ** 2, 1000.0 * np.abs(Y[:, 0]), math.inf), 2)
    sched = GridSchedule(t0=0.1, steps=6, samples_per_axis=5, seed=4)
    x, w = np.zeros(2), np.array([1.0, 0.0])
    got, ref = estimate_subderivative(f, x, w, sched), old_estimate_subderivative(f, x, w, sched)
    assert _same_float(got.as_float(), ref.as_float()) and got.as_float() == 1000.0


def _top_level_callers(names) -> dict:
    """For each name, the top-level functions (or classes) of the library
    whose bodies call it."""
    found = {name: set() for name in names}
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in found:
                        found[called].add(getattr(top, "name", "<module>"))
    return found


def _calls_in_loops(name) -> set:
    """The top-level functions of the library that call name inside a loop
    or a comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for loop in (node for node in ast.walk(top) if isinstance(node, loops)):
                for node in ast.walk(loop):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
                        found.add(top.name)
    return found


def test_one_search_kernel_and_one_stabilizer():
    """Only _ball_search lays out and values the balls of a schedule; every
    estimate folds its levels by one call of _stabilize, which folds a
    stack of centers at once, so no caller folds inside a loop."""
    assert _top_level_callers(["_schedule_balls", "_stabilize"]) == {
        "_schedule_balls": {"_ball_search"},
        "_stabilize": {"estimate_second_subderivative", "estimate_parabolic_subderivative",
                       "check_parabolic_regularity", "estimate_subderivative", "check_twice_epi_diff"},
    }
    assert _calls_in_loops("_stabilize") == {"check_twice_epi_diff"}  # one fold per direction


STABILIZER_BRANCHES = ["no_finite_level", "inv_t_test", "growth_ratio", "extrapolated", "raw"]


def _stabilizer_row(branch, ts, a, b, u):
    """Three level minima at the levels ts, coarsest first, that take the
    given branch of the stabilizer, for levels of ratio 0.5 to 0.8 whose
    finest is at most 1: a in [-5, 5], b in [0.1, 5] and u in [0, 1] shape
    the row."""
    bound = 10.0 / ts[-1]  # the 1/t test's bound, at least 10
    if branch == "no_finite_level":
        return [math.inf] * 3
    if branch == "inv_t_test":  # the least finite minimum exceeds the bound
        return [bound * (1.0 + b), math.inf if u < 0.5 else bound * (2.0 + b), bound * (1.0 + u) + b]
    if branch == "growth_ratio":  # beyond 100, each level at least 1.8 times the coarser one
        m1 = 1.8 * (1.0 + u) * (1.0 + b)
        return [1.0 + u, m1, 1.8 * m1 * (1.0 + u) + 100.0]
    if branch == "extrapolated":  # linear in t: extrapolated to a, within the spread of the row
        return [a + b * t for t in ts]
    return [a, a, a + b]  # one jump at the finest level: extrapolated beyond twice the spread


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    t0=st.floats(1e-3, 1.0),
    ratio=st.floats(0.5, 0.8),
    steps=st.integers(3, 12),
)
@pytest.mark.parametrize("branch", STABILIZER_BRANCHES + ["mixed"])
def test_the_stacked_stabilizer_equals_the_scalar_fold(branch, data, t0, ratio, steps):
    """Every row of a stack folds, bit for bit, as the scalar fold folds it
    alone, on each branch of the rule and on stacks that mix them."""
    ts = GridSchedule(t0=t0, ratio=ratio, steps=steps).t_levels()
    if branch == "mixed":
        kinds = data.draw(st.lists(st.sampled_from(STABILIZER_BRANCHES), min_size=2, max_size=8))
    else:
        kinds = [branch]
    shape = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 1.0))
    rows = [_stabilizer_row(kind, ts, *data.draw(shape)) for kind in kinds]
    got = oracle._stabilize(ts, rows)
    assert len(got) == len(rows)
    for kind, row, est in zip(kinds, rows, got):
        ref = old_stabilize([(t, m, None) for t, m in zip(ts, row)])
        assert _same_float(est.as_float(), ref.as_float()), (kind, row)
        finite = [m for m in row if math.isfinite(m)]
        if kind in ("no_finite_level", "inv_t_test", "growth_ratio"):
            assert est.is_plus_inf
        elif kind == "extrapolated":
            assert est.is_finite and est.value != min(row)
        else:
            assert est.value == min(finite)


def test_the_random_ball_path_draws_only_the_searched_levels(monkeypatch):
    """In dimension 5 the balls of a ten-step schedule are three ball_steps
    draws from one rng seeded with the schedule's seed, and that rng ends
    where those three draws leave it: no level outside the schedule is drawn."""
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1])
    sched = GridSchedule(seed=11)
    balls = oracle._schedule_balls(sched, 5)
    monkeypatch.undo()
    ref = np.random.default_rng(sched.seed)
    assert len(balls) == 3 and len(made) == 1
    for t, (t1, radius, offsets) in zip(sched.t_levels(), balls):
        steps = ball_steps(ref, oracle.RANDOM_BALL_SAMPLES, 5, sched.radius(t), 1.0 / 5)
        assert t1 == t and radius == sched.radius(t)
        assert offsets.tobytes() == np.vstack([np.zeros((1, 5)), steps]).tobytes()
    assert made[0].bit_generator.state == ref.bit_generator.state


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


def _parabolic_rows(argv) -> tuple:
    """The exit code of a verify run and the parabolic-regularity rows of
    its directions whose formula is finite."""
    code, text = run(argv)
    rows = json.loads(text.split("--- machine readable ---")[1])["directions"]
    return code, [row["parabolic_regularity"] for row in rows if "parabolic_regularity" in row]


@pytest.mark.parametrize("seed", [None, 3])
def test_polyhedron_m6_is_parabolically_regular_along_its_recovery_sequence(seed):
    """The z-grid missed here (rhs 0.50018 against lhs 0.41957, the exact
    value 5/12): the recovery sequence's own z_t reaches lhs."""
    argv = ["verify", str(FIXTURES / "polyhedron_m6.json")] + ([] if seed is None else ["--seed", str(seed)])
    code, rows = _parabolic_rows(argv)
    assert code == 0 and len(rows) == 1
    assert rows[0]["holds"] and rows[0]["lhs"] == pytest.approx(5.0 / 12.0, abs=0.01)
    assert abs(rows[0]["rhs"] - rows[0]["lhs"]) <= oracle.GAP_TOL


# ind_negsemidef on S^2, round 36 of the spectral benchmark stream at seed 2,
# where the z-grid's rhs read +inf against lhs 0.7807
S2_R36 = {
    "phi": [],
    "F": [["0.5669746820499681 x1", "0.20323600492099386 x2", "-0.18303762268220622 x3", "-0.47087308368511865"],
          ["-0.2356766540938876 x1", "1.0182889939839315 x2", "0.2166675450814174 x3", "-0.3438161299325714"],
          ["-0.0838387561774362 x1", "0.15249142172418795 x2", "0.9129435280673743 x3", "-0.9861005551400587"]],
    "g": {"tag": "ind_negsemidef", "n": 2},
    "x": [0.5863695006937959, 0.6546244670356505, 0.11504179707200501],
    "v": [0.3950107779707933, 0.36383808716398197, -0.07770820280147274],
    "kappa": 1.0,
    "seed": 911497807,
}


def test_the_spectral_false_negative_of_the_z_grid_holds(tmp_path):
    path = tmp_path / "s2_r36.json"
    path.write_text(json.dumps(S2_R36))
    code, rows = _parabolic_rows(
        ["verify", str(path), "--dir=0.23312318879213345,-0.4384789956072759,-0.8679802700860325"])
    assert code == 0 and len(rows) == 1 and rows[0]["holds"]
    assert abs(rows[0]["rhs"] - 0.7807) <= 0.01


def test_a_candidate_finite_only_at_its_own_level_does_not_count():
    """|y|^2 on {y2 <= y1^3}, along w = (1, 0): the level table below is
    finite at t = 1 only, and its z_t = (0, 1.9) keeps the arc
    x + t w + t^2 z/2 in the domain at t = 1 but not at 1/2 or 1/4.  Its
    value at its own level is finite, and is planted as lhs; the candidate
    must not confirm it."""

    def batch(Y):
        return np.where(Y[:, 1] <= Y[:, 0] ** 3, np.einsum("ij,ij->i", Y, Y), math.inf)

    f = SampledFunction(batch, 2, "cubic cusp")
    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=5, radius_coeff=0.1, seed=1)
    x, v, w, z = np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.9])
    minima, _ = oracle._ball_search(f, x, 0.0, 0.0, z[None], sched, order=2, drift=w, polish=True)
    assert np.isfinite(minima[0]).tolist() == [True, False, False]
    own = estimate_parabolic_subderivative(f, x, w, 0.0, z, sched)
    assert own.is_finite
    table = [(1.0, w + 0.5 * z, own.value), (0.5, w, math.inf), (0.25, w, math.inf)]
    report = oracle.EpiReport(direction=w, formula_value=own, oracle_value=own, achieving_sequence=table)
    holds, lhs, rhs = check_parabolic_regularity(f, x, v, w, sched, report=report)
    assert not holds and lhs == own and rhs.is_plus_inf
    # an lhs of +inf is refuted only by a finite counted value: none here
    assert check_parabolic_regularity(f, x, v, w, sched, report=replace(report, oracle_value=PLUS_INF))[0]


def test_an_lhs_planted_off_the_recovery_sequence_fails_the_check():
    """Every z bounds the second subderivative from above (Rockafellar-Wets
    1998, Prop. 13.64), so an lhs 2 gap_tol above the true value is refuted
    by a candidate below it; one 2 gap_tol below has no witness.  Either
    way the check fails, and rhs stays near the true value."""
    f = sampled_objective(a1_problem())
    x, v, w = np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0])
    (rep,) = check_twice_epi_diff(f, x, v, [w], formula=lambda w: ExtReal(-2.0 * w[0] ** 2))
    true = rep.oracle_value
    assert check_parabolic_regularity(f, x, v, w, report=rep)[0]
    for sign in (1.0, -1.0):
        planted = replace(rep, oracle_value=ExtReal(true.value + sign * 2.0 * oracle.gap_tol(true)))
        holds, lhs, rhs = check_parabolic_regularity(f, x, v, w, report=planted)
        assert not holds and lhs == planted.oracle_value
        assert abs(rhs.value - true.value) <= oracle.gap_tol(true)


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


# -- complete-poll pattern search ------------------------------------------------------------


def _landscape(dim, seed, holes, trap, ties):
    """A seeded test function valued per row of a stack: a quadratic bowl,
    rounded down to multiples of 1/8 when ties (so that polls tie), NaN (a
    point outside the domain) on stripes across the ball when holes, and
    -inf (a failed evaluation) on a thin slab when trap."""
    rng = np.random.default_rng(seed)
    target, normal = rng.uniform(-1.0, 1.0, dim), rng.standard_normal(dim)
    lo = float(rng.uniform(-1.0, 1.0))

    def value(P):
        vals = np.sum((P - target) ** 2, axis=1)
        if ties:
            vals = np.floor(8.0 * vals) / 8.0
        if holes:
            vals = np.where(np.sin(37.0 * (P @ normal)) > 0.2, math.nan, vals)
        if trap:
            vals = np.where((P[:, 0] > lo) & (P[:, 0] < lo + 0.02), -math.inf, vals)
        return vals

    return value, target


def _run_poll(value, target, dim, seed, max_evals, budget, lin):
    """Run one _pattern_search on value from a seeded start in the unit ball
    and record its calls in order: ("score", P, values) and ("rescue", P,
    values).  A rescue pulls each point 10% toward the bowl's center."""
    rng = np.random.default_rng(seed + 1)
    center = rng.uniform(-0.5, 0.5, dim)
    extra = [rng.standard_normal(dim)] if lin else []
    events = []

    def score(P):
        vals = value(P)
        events.append(("score", P.copy(), vals.copy()))
        return vals, P

    def rescue(P):
        pts = P + 0.1 * (target - P)
        vals = np.sum((pts - target) ** 2, axis=1)
        events.append(("rescue", P.copy(), vals.copy()))
        return vals, pts

    f0 = float(np.sum((center - target) ** 2)) + 1.0
    got = [out[0] for out in oracle._pattern_search(
        lambda P, _: score(P), center[None], [f0], center[None], 1.0, extra, max_evals,
        (lambda P, _: rescue(P)) if budget else None, budget)]
    return got, events, center, f0, extra


def _polls(events):
    """Group the recorded calls into polls: (P, values, rescued rows or None,
    rescued values, rescued points)."""
    polls = []
    for kind, P, vals in events:
        if kind == "score":
            polls.append([P, vals, None, None])
        else:
            assert polls and polls[-1][2] is None, "one rescue stack per poll, after its scorer call"
            polls[-1][2], polls[-1][3] = P, vals
    return polls


POLL_CASES = dict(
    dim=st.integers(1, 3),
    holes=st.booleans(),
    ties=st.booleans(),
    lin=st.booleans(),
    max_evals=st.sampled_from([1, 5, 30, 700]),
    budget=st.sampled_from([0, 1, 3, 150]),
    seed=st.integers(0, 2 ** 16),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**POLL_CASES)
def test_poll_scores_each_step_in_one_call_and_moves_to_its_first_best_row(
        dim, holes, ties, lin, max_evals, budget, seed):
    """Every scorer call is one poll: the points best +- s*d of the axes and
    then the extra direction, in that order, pulled into the ball and cut to
    the evaluations left.  The search moves to the least row below the
    threshold, the first one on ties, and keeps s; it halves s only after a
    poll with no such row, and stops at the step floor or at max_evals."""
    value, target = _landscape(dim, seed, holes, False, ties)
    (best_f, best_p), events, center, f0, extra = _run_poll(value, target, dim, seed, max_evals, budget, lin)
    dirs = list(np.eye(dim)) + [d / np.linalg.norm(d) for d in extra]
    pattern = np.array([sgn * d for d in dirs for sgn in (1.0, -1.0)])
    best, cur, step, evals = center, f0, 0.5, 0
    for P, vals, asked, rescued in _polls(events):
        assert step > 1e-9 and evals < max_evals
        assert np.array_equal(P, oracle._ball_clip(best + step * pattern[:max_evals - evals], center, 1.0))
        evals += len(P)
        pts = P.copy()
        if asked is not None:
            rows = np.flatnonzero(np.isnan(vals))[:len(asked)]
            vals = vals.copy()
            vals[rows], pts[rows] = rescued, asked + 0.1 * (target - asked)
        below = [k for k in range(len(P)) if vals[k] < cur - 1e-15 * (1.0 + abs(cur))]
        if not below:
            step *= 0.5
            continue
        k = min(below, key=lambda k: (vals[k], k))
        best, cur = pts[k], float(vals[k])
    assert step <= 1e-9 or evals >= max_evals
    assert best_f == cur and np.array_equal(best_p, best)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**POLL_CASES)
def test_poll_keeps_max_evals_and_the_rescue_budget(dim, holes, ties, lin, max_evals, budget, seed):
    """The scored rows never exceed max_evals, and the rescued rows never
    exceed the budget: each poll sends its first NaN rows by index, as many
    as the budget still allows, to one rescue stack and charges each."""
    value, target = _landscape(dim, seed, holes, False, ties)
    _, events, *_ = _run_poll(value, target, dim, seed, max_evals, budget, lin)
    polls = _polls(events)
    assert sum(len(P) for P, *_ in polls) <= max_evals
    left = budget
    for P, vals, asked, _ in polls:
        rows = np.flatnonzero(np.isnan(vals))[:left]
        if rows.size:
            assert np.array_equal(asked, P[rows])
            left -= rows.size
        else:
            assert asked is None
    assert budget - left == sum(len(a) for _, _, a, _ in polls if a is not None) <= budget


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 3), lin=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_poll_ends_at_a_failed_row(dim, lin, seed):
    """A poll with a -inf row (a failed evaluation) ends the search at the
    first such row, and the level search raises there as valuing that point
    alone does; a search that never polls one returns a finite minimum."""
    value, target = _landscape(dim, seed, False, True, False)
    (best_f, best_p), events, *_ = _run_poll(value, target, dim, seed, 700, 0, lin)
    hit = [k for k, (_, _, vals) in enumerate(events) if (vals == -math.inf).any()]
    if not hit:
        assert math.isfinite(best_f)
        return
    assert len(events) == hit[0] + 1 and best_f == -math.inf
    _, P, vals = events[hit[0]]
    assert np.array_equal(best_p, P[int(np.argmax(vals == -math.inf))])


def test_level_search_raises_on_a_failed_poll_row():
    """y^2 on R, valued below NEG_GUARD on 0.2 < y < 0.3: at the level t = 1
    the first poll from 0 at step 0.5 misses the slab, the second at 0.25
    hits it (and the ball of the level t = 0.5 holds y = 0.25 too), and the
    level search raises."""
    f = SampledFunction(lambda Y: np.where((Y[:, 0] > 0.2) & (Y[:, 0] < 0.3), -1e16, Y[:, 0] ** 2), 1)
    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=3, radius_coeff=1.0, seed=1)
    args = (f, np.zeros(1), np.zeros(1), 0.0, np.zeros(1), sched)
    with pytest.raises(NegativeInfinityDetected):
        oracle._level_minimum(*args)


def test_level_search_raises_as_the_levels_one_by_one_do_when_two_polls_fail():
    """With the slab at 0.1 < y < 0.2, no ball point of the levels t = 1,
    0.5, 0.25 (y = 0, +-t^2) lies in it, but the polls of the first two
    levels reach y = 0.125: both would raise.  The lockstep search raises
    what the levels raise one by one, class and message."""
    f = SampledFunction(lambda Y: np.where((Y[:, 0] > 0.1) & (Y[:, 0] < 0.2), -1e16, Y[:, 0] ** 2), 1)
    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=3, radius_coeff=1.0, seed=1)
    x, v, w = np.zeros(1), np.zeros(1), np.zeros(1)
    for t in sched.t_levels()[:2]:
        with pytest.raises(NegativeInfinityDetected):
            old_level_minimum(f, x, t, v, 0.0, w, sched.radius(t), sched, np.random.default_rng(1))
    assert math.isfinite(old_level_minimum(f, x, 0.25, v, 0.0, w, 0.25, sched, np.random.default_rng(1))[0])
    with pytest.raises(NegativeInfinityDetected) as lockstep:
        oracle._level_minimum(f, x, v, 0.0, w, sched)
    with pytest.raises(NegativeInfinityDetected) as one_by_one:
        old_second_order_levels(f, x, v, w, sched)
    assert str(lockstep.value) == str(one_by_one.value)


def test_a_nan_stripe_raises_an_epidiff_error_on_every_search():
    """y^2 on R, NaN on 0.2 < y < 0.3: the level search (a poll of its level
    t = 1 reaches y = 0.25), the stacked parabolic estimate (a poll about
    z = 0.5 at t = 1 does) and the fixed ray of the first-order estimate
    (y = 0.25 at t = 0.25) each meet the stripe.  Each raises UndefinedValue,
    an EpidiffError, so that the CLI exits 2 rather than ending in a
    traceback."""
    f = SampledFunction(lambda Y: np.where((Y[:, 0] > 0.2) & (Y[:, 0] < 0.3), math.nan, Y[:, 0] ** 2), 1)
    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=3, radius_coeff=1.0, seed=1)
    zero = np.zeros(1)
    searches = [lambda: oracle._level_minimum(f, zero, zero, 0.0, zero, sched),
                lambda: estimate_parabolic_subderivative(f, zero, zero, 0.0, np.array([[0.0], [0.5]]), sched),
                lambda: estimate_subderivative(f, zero, np.ones(1), sched)]
    for search in searches:
        with pytest.raises(EpidiffError) as err:
            search()
        assert isinstance(err.value, UndefinedValue)


def test_a_nan_on_a_ball_point_raises_before_any_rescue():
    """y^2 on R, NaN on 0.9 < y < 1.1: the level search's ball at t = 1 holds
    y = 1, while its polls from the minimizer y = 0 stay in |y| <= 0.5.  The
    ball point raises UndefinedValue, as a poll point would.  With y > 1.5
    outside the domain and the balls (radius 0.1 t) about 5, the balls of
    t = 1 and 0.5 are empty and the one of t = 0.25 holds y = 1.25625, NaN
    on 1.255 < y < 1.26: that raises too, before either empty ball is
    restored."""
    zero = np.zeros(1)
    f = SampledFunction(lambda Y: np.where((Y[:, 0] > 0.9) & (Y[:, 0] < 1.1), math.nan, Y[:, 0] ** 2), 1)
    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=3, radius_coeff=1.0, seed=1)
    with pytest.raises(UndefinedValue):
        oracle._level_minimum(f, zero, zero, 0.0, zero, sched)
    restored = []

    def value(Y):
        y = Y[:, 0]
        return np.where((y > 1.255) & (y < 1.26), math.nan, np.where(y <= 1.5, y ** 2, math.inf))

    f = SampledFunction(value, 1, restore_feasible=lambda Y: restored.append(Y) or np.minimum(Y, 1.5))
    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=3, radius_coeff=0.1, seed=1)
    with pytest.raises(UndefinedValue):
        oracle._level_minimum(f, zero, zero, 0.0, np.array([5.0]), sched)
    assert restored == []


def test_a_nan_on_a_first_order_ball_point_raises():
    """f(y) = -y on y <= 0, +inf above, NaN on -1.1 < y < -0.9, along w = 1:
    the fixed ray is +inf at every level, so the first-order estimate falls
    back on its balls, and the ball of t = 1 (radius 4) holds y = -1.  That
    point raises UndefinedValue, as it does on the fixed ray, instead of
    being skipped (the estimate read 1.0)."""

    def value(Y):
        y = Y[:, 0]
        return np.where((y > -1.1) & (y < -0.9), math.nan, np.where(y <= 0.0, -y, math.inf))

    sched = GridSchedule(t0=1.0, steps=3, samples_per_axis=5, radius_coeff=4.0)
    with pytest.raises(UndefinedValue):
        estimate_subderivative(SampledFunction(value, 1), np.zeros(1), np.ones(1), sched)


def test_searches_value_each_ball_point_once_and_restore_empty_balls_in_one_stack():
    """F(x) = x2 - x1^2 into R_-, along the outward w = (0, 1): the balls of
    most levels hold no feasible point.  Before its first restoration, the
    level search values each ball point once (the ball batch has valued
    every center already), and its first restoration stack holds the
    center of every empty level; the stacked parabolic estimate does the
    same over its (z, level) pairs."""
    base = sampled_objective(a1_problem())
    events = []
    f = SampledFunction(lambda X: events.append(("value", X.copy())) or base.evaluator(X), 2,
                        restore_feasible=lambda X: events.append(("restore", X.copy())) or base.restore_feasible(X))
    sched = GridSchedule(t0=0.1, steps=5, radius_coeff=33.0, samples_per_axis=4, seed=3)
    x, w, Z = np.zeros(2), np.array([0.0, 1.0]), np.array([[0.0, 5.0], [1.0, -1.0]])
    balls = oracle._schedule_balls(sched, 2)
    runs = [(lambda: oracle._level_minimum(f, x, w, 0.0, w, sched), w[None, :], lambda t: (x, t)),
            (lambda: estimate_parabolic_subderivative(f, x, w, 0.0, Z, sched), Z, lambda t: (x + t * w, 0.5 * t * t))]
    for search, centers, point_map in runs:
        events.clear()
        search()
        first = next(i for i, (kind, _) in enumerate(events) if kind == "restore")
        valued = np.concatenate([X for _, X in events[:first]])
        valued = valued[np.any(valued != x, axis=1)]  # the parabolic estimate values f(x) first
        assert len(valued) == len(centers) * sum(len(offsets) for _, _, offsets in balls)
        assert len(np.unique(valued, axis=0)) == len(valued)
        empty = []
        for c in centers:
            for t, _, offsets in balls:
                shift, s = point_map(t)
                if np.isinf(base.values(shift + s * (c + offsets))).all():
                    empty.append(shift + s * c)
        assert empty and np.allclose(events[first][1], empty, rtol=0.0, atol=1e-15)


# -- stack values against point values ------------------------------------------------------


def _catalog_members():
    from epidiff.outer import NegSemidefIndicator, alpha_eig, max_eig, sum_top_eig, zero_function
    from epidiff.outer.smooth import SmoothQuadratic
    from epidiff.core import PolyMap
    from epidiff.numkit import Polyhedron, svec
    from epidiff.outer import PlqFunction, PlqPiece, PolyhedralIndicator
    from _instances import half_square_plq, max_of_coordinates_plq

    wedge = Polyhedron.make(3, G=[[1.0, 1.0, 0.0], [-1.0, 2.0, 0.5]], h=[0.2, 0.1], E=[[0.0, 1.0, 1.0]], d=[0.0])
    # dense piece data, where dot products of different kernels round apart
    A, a = np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.1, -0.2])
    halves = [Polyhedron.make(2, G=[[sgn, 0.0]], h=[0.0]) for sgn in (1.0, -1.0)]
    return {
        "ind_nonpos": nonpositive_orthant(3),
        "ind_polyhedron": PolyhedralIndicator(wedge),
        "abs": absolute_value(),
        "plq": half_square_plq(),
        "plq_max": max_of_coordinates_plq(),
        "plq_dense": PlqFunction([PlqPiece(half, A, a, 0.5) for half in halves]),
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
    nonlinear=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_stack_values_equal_point_values_on_every_catalog_member(tag, rows, scale, nonlinear, seed):
    """g.value at a point equals its g.value_batch row bit for bit, and so
    SampledFunction.value of g(F(.)) equals eval_batch(x[None])[0] and its
    values() row, for every catalog member, with a linear F and with the
    nonlinear F_i(x) = x_i^3 + 0.5 x_{i+1}^2."""
    from epidiff.core import CompositeProblem, PolyMap

    g = _catalog_members()[tag]
    m = g.ambient_dim
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((rows, m)) * scale
    if tag.startswith("ind_"):
        Z[0] = g.domain_project(Z[0])
    batch = g.value_batch(Z)
    for z, b in zip(Z, batch):
        assert g.value(z).as_float() == b or (math.isinf(b) and g.value(z).is_plus_inf)
    if nonlinear:
        F = PolyMap.from_strings([[f"x{i + 1}^3", f"0.5 x{(i + 1) % m + 1}^2"] for i in range(m)], m)
        X = Z
    else:
        A = rng.standard_normal((m, m))
        F = PolyMap.linear(A)
        X = np.linalg.solve(A, Z.T).T
    f = sampled_objective(CompositeProblem(PolyMap.zero(m), F, g))
    stack = f.values(X)
    for x, s in zip(X, stack):
        v = f.value(x).as_float()
        assert _same_float(v, f.eval_batch(x[None])[0]) and _same_float(v, s)


def test_every_catalog_member_values_an_empty_stack():
    for tag, g in _catalog_members().items():
        assert g.value_batch(np.zeros((0, g.ambient_dim))).shape == (0,), tag


def test_dense_plq_values_a_point_as_its_stack_row():
    """At this point of the dense PLQ, a quadratic summed by a matrix kernel
    rounds one bit away from the dot products: value, the point's one-row
    stack and its row of a longer stack read the same bits."""
    g = _catalog_members()["plq_dense"]
    z = np.array([-2.3250307746388343, -0.21879166393254573])
    v = g.value(z).as_float()
    assert _same_float(v, g.value_batch(z[None])[0])
    assert _same_float(v, g.value_batch(np.array([z, [0.4, -1.3], [-0.7, 2.2]]))[0])


def test_values_above_the_cap_read_plus_inf_on_every_path():
    """g(y) = y^2 with F the identity: at x = 1e16, g(F(x)) = 1e32 lies above
    the ExtReal cap, and eval_batch, values and value all read +inf there."""
    from epidiff.core import CompositeProblem, PolyMap
    from epidiff.outer.smooth import SmoothQuadratic

    g = SmoothQuadratic(PolyMap.from_strings([["x1^2"]], 1), PolyMap.zero(1))
    f = sampled_objective(CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), g))
    X = np.array([[2.0], [1e16]])
    for vals in (f.eval_batch(X), f.values(X)):
        assert vals.tolist() == [4.0, math.inf]
    assert f.value(X[0]).as_float() == 4.0 and f.value(X[1]).is_plus_inf


def _same_float(a, b) -> bool:
    return np.array_equal(np.float64(a).view(np.int64), np.float64(b).view(np.int64))


# -- lockstep searches -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    searches=st.lists(st.tuples(st.sampled_from([1, 5, 30, 700]), st.sampled_from([0, 1, 3, 150]),
                                st.integers(0, 2 ** 16)), min_size=1, max_size=5),
    dim=st.integers(1, 3),
    holes=st.booleans(),
    ties=st.booleans(),
    trap=st.booleans(),
    lin=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_lockstep_searches_each_take_the_path_they_take_alone(searches, dim, holes, ties, trap, lin, seed):
    """Searches with their own start, center, radius, max_evals and rescue
    budget, run in lockstep on one landscape: each search's result, and its
    own rows of every shared scorer and rescue call, in order, equal what
    _pattern_search does with that search alone."""
    value, target = _landscape(dim, seed, holes, trap, ties)
    extra = [np.random.default_rng(seed).standard_normal(dim)] if lin else []
    setups = []
    for max_evals, budget, s in searches:
        rng = np.random.default_rng(s)
        center, radius = rng.uniform(-0.5, 0.5, dim), float(rng.uniform(0.2, 1.0))
        start = oracle._ball_clip(center + rng.uniform(-radius, radius, dim), center, radius)
        setups.append((start, float(np.sum((start - target) ** 2)) + 1.0, center, radius, max_evals, budget))

    def recorder(events, kind, answer):
        def call(P, owner=None):
            vals, pts = answer(P)
            events.append((kind, P.copy(), owner, vals.copy(), pts.copy()))
            return vals, pts
        return call

    def rescued(P):
        pts = P + 0.1 * (target - P)
        return np.sum((pts - target) ** 2, axis=1), pts

    shared = []
    best_f, best_p = oracle._pattern_search(
        recorder(shared, "score", lambda P: (value(P), P)), np.array([u[0] for u in setups]),
        [u[1] for u in setups], np.array([u[2] for u in setups]), [u[3] for u in setups], extra,
        max_evals=[u[4] for u in setups], rescue=recorder(shared, "rescue", rescued),
        rescues=[u[5] for u in setups])
    for j, (start, f_start, center, radius, max_evals, budget) in enumerate(setups):
        alone = []
        got = [out[0] for out in oracle._pattern_search(
            recorder(alone, "score", lambda P: (value(P), P)), start[None], [f_start], center[None],
            radius, extra, max_evals, recorder(alone, "rescue", rescued), budget)]
        mine = [(kind, P[owner == j], vals[owner == j], pts[owner == j])
                for kind, P, owner, vals, pts in shared if (owner == j).any()]
        assert [e[0] for e in mine] == [e[0] for e in alone]
        for (_, P, vals, pts), (_, P1, _, vals1, pts1) in zip(mine, alone):
            assert P.tobytes() == P1.tobytes() and vals.tobytes() == vals1.tobytes()
            assert pts.tobytes() == pts1.tobytes()
        assert _same_float(best_f[j], got[0]) and best_p[j].tobytes() == got[1].tobytes()


def _reference_cases():
    """(name, f, x, v, w, dfw, Z, sched): every catalog member through an
    invertible linear F, each indicator at a boundary point along a feasible
    direction, so that the searches restore; then a level search that takes
    the center-rescue branch on some levels, and a dimension-5 function on
    the random-ball path."""
    from epidiff.core import CompositeProblem, PolyMap

    sched = GridSchedule(t0=0.1, steps=4, samples_per_axis=5, seed=7)
    for name, g in sorted(_catalog_members().items()):
        m = g.ambient_dim
        rng = np.random.default_rng(len(name))
        A = np.eye(m) + 0.2 * rng.standard_normal((m, m))
        f = sampled_objective(CompositeProblem(PolyMap.zero(m), PolyMap.linear(A), g))
        z, wz, vz = 0.3 * rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal(m)
        if name.startswith("ind_"):
            z, vz = g.domain_project(z), z - g.domain_project(z)
            wz = 2.0 * (g.domain_project(z + 0.5 * wz) - z)
        x, w = np.linalg.solve(A, z), np.linalg.solve(A, wz)
        dfw = estimate_subderivative(f, x, w, sched)
        yield (name, f, x, A.T @ vz, w, dfw.as_float() if dfw.is_finite else float(vz @ wz),
               rng.uniform(-2.0, 2.0, (3, m)), sched)
    # F(x) = x2 - x1^2 into R_-, along the outward w = (0, 1): the grid ball
    # holds a feasible point at the coarsest level only; at the next level
    # the restored center lies in the ball, at the finer ones it does not
    yield ("a1_center_rescue", sampled_objective(a1_problem()), np.zeros(2), np.array([0.0, 1.0]),
           np.array([0.0, 1.0]), 0.0, np.array([[0.0, 5.0], [1.0, -1.0]]),
           GridSchedule(t0=0.1, steps=5, radius_coeff=33.0, samples_per_axis=4, seed=3))
    yield ("dim5", _halfspace_quadratic(), np.full(5, 0.1), np.full(5, 0.2), np.eye(5)[0], 0.02,
           np.random.default_rng(5).uniform(-1.0, 1.0, (2, 5)), GridSchedule(t0=0.1, steps=4, seed=11))


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_lockstep_levels_and_parabolic_estimates_equal_the_loops_they_replace(case):
    """The lockstep level search gives the (t, m, p) records of the
    per-level loop bit for bit, and the parabolic estimate of a stack of z
    gives, row by row, the per-z estimate bit for bit; neither values a
    point outside the balls of the schedule's levels."""
    _, f, x, v, w, dfw, Z, sched = case
    recorded, valued = _recording(f)
    got = oracle._second_order_levels(recorded, x, v, w, sched)
    ref = old_second_order_levels(f, x, v, w, sched)
    assert _outside_the_finest_levels(valued, x, w[None], sched) == 0
    assert [(t, m) for t, m, _ in got] == [(t, m) for t, m, _ in ref]
    assert all(_same_float(m, m1) and p.tobytes() == p1.tobytes() for (_, m, p), (_, m1, p1) in zip(got, ref))
    valued.clear()
    stacked = estimate_parabolic_subderivative(recorded, x, w, dfw, Z, sched)
    assert _outside_the_finest_levels(valued, x, Z, sched, w) == 0
    assert len(stacked) == len(Z)
    for z, est in zip(Z, stacked):
        ref = old_parabolic_estimate(f, x, w, dfw, z, sched)
        assert _same_float(est.as_float(), ref.as_float())
        assert _same_float(estimate_parabolic_subderivative(f, x, w, dfw, z, sched).as_float(), ref.as_float())
