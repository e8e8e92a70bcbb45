from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff import core
from epidiff.core import (
    MAX_DEGREE,
    STABLE_LEVELS,
    CompositeProblem,
    GridSchedule,
    PolyMap,
    component_hessian,
    gradient,
    hessian,
    jacobian,
    parse_monomial,
    poly_eval,
    poly_eval_batch,
    second_form,
)
from epidiff.errors import DimensionMismatch, ValidationError
from epidiff.outer import nonpositive_orthant


def test_poly_eval_examples():
    p = PolyMap.from_strings([["x1^2"]], 1)
    assert poly_eval(p, [3.0])[0] == 9.0
    p2 = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    assert poly_eval(p2, [1.0, 1.0])[0] == 0.0
    p3 = PolyMap.from_strings([["x1 x2", "x1^3"]], 2)
    assert poly_eval(p3, [2.0, 1.0])[0] == 10.0


def test_jacobian_examples():
    p = PolyMap.from_strings([["x1^2"]], 1)
    assert jacobian(p, [3.0]).tolist() == [[6.0]]
    p2 = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    assert jacobian(p2, [0.0, 0.0]).tolist() == [[0.0, 1.0]]
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    lin = PolyMap.linear(A)
    for x in ([0.0, 0.0], [2.0, -1.0]):
        assert np.allclose(jacobian(lin, x), A)


def test_second_form_examples():
    p = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    assert second_form(p, [0.0, 0.0], [1.0, 0.0])[0] == -2.0
    lin = PolyMap.linear(np.array([[1.0, 1.0]]))
    assert second_form(lin, [0.3, 0.7], [1.0, 2.0])[0] == 0.0
    p2 = PolyMap.from_strings([["x1^2 x2"]], 2)
    assert second_form(p2, [1.0, 1.0], [1.0, 1.0])[0] == 6.0


def _random_polymap(rng, n_in, n_out, degree):
    comps = []
    for _ in range(n_out):
        comp = []
        for _ in range(rng.integers(1, 5)):
            exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=n_in))
            while sum(exps) > degree:
                exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=n_in))
            comp.append((float(rng.normal()), exps))
        comps.append(comp)
    return PolyMap(n_in, comps)


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-4
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = _random_polymap(rng, n, int(rng.integers(1, 3)), 4)
        x = rng.uniform(-1, 1, size=n)
        w = rng.standard_normal(n)
        J = jacobian(p, x)
        scale = 1.0 + max(abs(c) for comp in p.components for c, _ in comp)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (poly_eval(p, x + e) - poly_eval(p, x - e)) / (2 * h)
            assert np.max(np.abs(J[:, i] - fd)) <= 1e-5 * scale
        sf = second_form(p, x, w)
        fd2 = (poly_eval(p, x + h * w) - 2 * poly_eval(p, x) + poly_eval(p, x - h * w)) / h**2
        assert np.max(np.abs(sf - fd2)) <= 1e-4 * scale * (1 + np.linalg.norm(w)) ** 2


def test_poly_eval_exact_on_integers():
    p = PolyMap.from_strings([["3 x1^2 x2", "-2 x1", "7"]], 2)
    assert poly_eval(p, [2.0, 5.0])[0] == 3 * 4 * 5 - 4 + 7
    batch = poly_eval_batch(p, np.array([[2.0, 5.0], [1.0, 1.0]]))
    assert batch[0, 0] == 63.0 and batch[1, 0] == 8.0


def test_monomial_parsing():
    assert parse_monomial("3 x1^2 x2", 2) == (3.0, (2, 1))
    assert parse_monomial("x2", 2) == (1.0, (0, 1))
    assert parse_monomial("-x1", 2) == (-1.0, (1, 0))
    assert parse_monomial("0.5", 2) == (0.5, (0, 0))
    with pytest.raises(ValidationError):
        parse_monomial("x3", 2)
    with pytest.raises(ValidationError):
        parse_monomial("3 y1", 2)


def test_polymap_validation():
    with pytest.raises(ValidationError):
        PolyMap(1, [[(1.0, (7,))]])  # degree cap
    merged = PolyMap(1, [[(1.0, (1,)), (2.0, (1,))]])
    assert merged.components[0] == [(3.0, (1,))]


def test_grid_schedule_validation():
    sched = GridSchedule()
    assert sched.t_levels() == [sched.t0 * sched.ratio ** k for k in range(sched.steps - 3, sched.steps)]
    assert len(sched.t_levels()) == STABLE_LEVELS
    assert sched.radius(0.1) == sched.radius_coeff * 0.1
    with pytest.raises(ValidationError):
        GridSchedule(t0=-1.0)
    with pytest.raises(ValidationError):
        GridSchedule(ratio=1.0)
    with pytest.raises(ValidationError):
        GridSchedule(steps=2)


@pytest.mark.parametrize("opts", [{"ratio": 0.3}, {"steps": 3}, {}], ids=["ratio0.3", "steps3", "default"])
def test_the_coarse_schedule_keeps_the_levels(opts):
    """The coarse schedule differs from its schedule only in samples per
    axis: its levels are the schedule's, bit for bit, at any ratio and at
    the fewest steps."""
    sched = GridSchedule(**opts)
    cheap = sched.coarse()
    assert np.array(cheap.t_levels()).tobytes() == np.array(sched.t_levels()).tobytes()
    assert cheap == replace(sched, samples_per_axis=7)


def test_composite_problem_consistency():
    phi = PolyMap.from_strings([["x2"]], 2)
    F = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    CompositeProblem(phi, F, nonpositive_orthant(1))
    with pytest.raises(Exception):
        CompositeProblem(phi, F, nonpositive_orthant(2))


# -- the compiled kernel against monomial-by-monomial interpreters -------------------
#
# The reference below interprets the monomial lists directly, term by term,
# the way the library did before it compiled maps: the compiled kernel must
# reproduce its results bit for bit.  Powers are numpy's array power, which
# the kernel uses for points and stacks alike (the scalar power can differ
# from it in the last bit).


def _ref_term(coeff, exps, x):
    term = coeff
    for xi, e in zip(x, exps):
        if e:
            term *= (np.array([xi]) ** e)[0]
    return term


def _ref_diff(coeff, exps, i):
    if exps[i] == 0:
        return None
    new = list(exps)
    new[i] -= 1
    return coeff * exps[i], tuple(new)


def _ref_terms(coeff, exps, X):
    term = np.full(X.shape[0], coeff)
    for i, e in enumerate(exps):
        if e:
            term = term * X[:, i] ** e
    return term


def _ref_eval_batch(p, X):
    X = np.asarray(X, dtype=float)
    out = np.zeros((X.shape[0], p.n_out))
    for j, comp in enumerate(p.components):
        for coeff, exps in comp:
            out[:, j] += _ref_terms(coeff, exps, X)
    return out


def _ref_jacobian_batch(p, X):
    J = np.zeros((X.shape[0], p.n_out, p.n_in))
    for j, comp in enumerate(p.components):
        for coeff, exps in comp:
            for i in range(p.n_in):
                d = _ref_diff(coeff, exps, i)
                if d is not None:
                    J[:, j, i] += _ref_terms(*d, X)
    return J


def _ref_eval(p, x):
    return _ref_eval_batch(p, np.asarray(x, dtype=float)[None])[0]


def _ref_jacobian(p, x):
    return _ref_jacobian_batch(p, np.asarray(x, dtype=float)[None])[0]


def _ref_hessian(p, x, j):
    x = np.asarray(x, dtype=float)
    H = np.zeros((p.n_in, p.n_in))
    for coeff, exps in p.components[j]:
        for a in range(p.n_in):
            d1 = _ref_diff(coeff, exps, a)
            if d1 is None:
                continue
            for b in range(p.n_in):
                d2 = _ref_diff(*d1, b)
                if d2 is not None:
                    H[a, b] += _ref_term(*d2, x)
    return 0.5 * (H + H.T)


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bits; two NaNs match whatever their sign bit,
    which the float formatting of a report never shows."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    equal = a.view(np.uint64) == b.view(np.uint64)
    return bool(np.all(equal | (np.isnan(a) & np.isnan(b))))


_COEFFS = st.sampled_from([1.0, -2.0, 0.1, 1.0 / 3.0, -0.7071067811865476, 3.5e300, -1e-300])
_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e60, -1e60, 1e200, 1e-200, np.inf, -np.inf, np.nan]),
)


@st.composite
def _maps_and_points(draw):
    n = draw(st.integers(1, 3))
    mono = st.tuples(_COEFFS, st.lists(st.integers(0, MAX_DEGREE), min_size=n, max_size=n)).filter(
        lambda ce: sum(ce[1]) <= MAX_DEGREE
    )
    comps = draw(st.lists(st.lists(mono, max_size=5), max_size=3))
    p = PolyMap(n, comps)
    x = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    rows = draw(st.integers(0, 20))
    X = np.array(draw(st.lists(_VALUES, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    return p, x, w, X


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_maps_and_points())
def test_compiled_kernel_matches_interpreters_bitwise(case):
    """Values, batches, Jacobians, Hessians and second forms of the compiled
    kernel equal the monomial interpreters bit for bit: all degrees up to
    MAX_DEGREE, empty components, the zero map, overflow and NaN inputs;
    batches also split into blocks of one point."""
    p, x, w, X = case
    with np.errstate(all="ignore"):
        assert _same_bits(poly_eval(p, x), _ref_eval(p, x))
        batch = _ref_eval_batch(p, X)
        assert _same_bits(poly_eval_batch(p, X), batch)
        with mock.patch.object(core, "_BLOCK_FLOATS", 0):
            assert _same_bits(poly_eval_batch(p, X), batch)
        assert _same_bits(jacobian(p, x), _ref_jacobian(p, x))
        hessians = [_ref_hessian(p, x, j) for j in range(p.n_out)]
        for j, H in enumerate(hessians):
            assert _same_bits(component_hessian(p, x, j), H)
        assert _same_bits(second_form(p, x, w), np.array([w @ H @ w for H in hessians]))
        if p.n_out == 1:
            assert _same_bits(gradient(p, x), _ref_jacobian(p, x)[0])
            assert _same_bits(hessian(p, x), hessians[0])


def test_compiled_kernel_batches_span_blocks():
    """A batch of several blocks equals the interpreter bit for bit and comes
    back C-contiguous, like the interpreter's."""
    rng = np.random.default_rng(7)
    p = PolyMap.from_strings([["2 x1^3 x2", "-x2^2", "0.5"], ["x1 x2 x3", "3 x3^6"], []], 3)
    X = rng.standard_normal((3 * core._BLOCK_FLOATS // 9 + 5, 3)) * 3.0  # 9 slots
    out = poly_eval_batch(p, X)
    assert out.flags.c_contiguous
    assert _same_bits(out, _ref_eval_batch(p, X))


def test_compiled_kernel_zero_map_and_shapes():
    zero = PolyMap.zero(2, 3)
    assert _same_bits(poly_eval(zero, [1.0, 2.0]), np.zeros(3))
    assert _same_bits(poly_eval_batch(zero, np.ones((4, 2))), np.zeros((4, 3)))
    assert _same_bits(jacobian(zero, [1.0, 2.0]), np.zeros((3, 2)))
    assert _same_bits(second_form(zero, [1.0, 2.0], [1.0, 0.0]), np.zeros(3))
    p = PolyMap.from_strings([["x1 x2"]], 2)
    assert poly_eval_batch(p, np.zeros((0, 2))).shape == (0, 1)
    const = PolyMap.from_strings([["2"], []], 0)  # no variables
    assert _same_bits(poly_eval(const, []), np.array([2.0, 0.0]))
    assert _same_bits(poly_eval_batch(const, np.zeros((3, 0))), np.tile([2.0, 0.0], (3, 1)))
    assert jacobian(const, []).shape == (2, 0)
    with pytest.raises(Exception):
        poly_eval(p, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        poly_eval_batch(p, np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        poly_eval_batch(p, np.ones((3, 1)))


@st.composite
def _stacks_over_blocks(draw):
    """A map on R^n, n <= 4, of degree <= 3 with some outputs empty, and a
    stack of 1 to 3 of the kernel's blocks (of the map or of its partials,
    whichever is longer) and 1 to 3 rows more, some rows holding +-inf, NaN
    or entries whose powers overflow."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(_COEFFS, st.lists(st.integers(0, 3), min_size=n, max_size=n)).filter(
        lambda ce: sum(ce[1]) <= 3
    )
    p = PolyMap(n, draw(st.lists(st.lists(mono, max_size=4), min_size=1, max_size=3)))
    step = max(core._BLOCK_FLOATS // max(1, c.size * c.width) + 1 for c in (p._compiled, p._compiled.derivative))
    rows = draw(st.integers(1, 3)) * step + draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    for _ in range(draw(st.integers(0, 6))):
        X[draw(st.integers(0, rows - 1))] = draw(st.lists(_VALUES, min_size=n, max_size=n))
    return p, X


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_stacks_over_blocks())
def test_stacks_over_several_blocks_match_the_interpreters_bitwise(case):
    """poly_eval and jacobian of a stack that spans several of the kernel's
    blocks, and of single points, equal the per-monomial interpreters bit for
    bit, rows of inf, NaN and overflow included."""
    p, X = case
    with np.errstate(all="ignore"):
        values, J = _ref_eval_batch(p, X), _ref_jacobian_batch(p, X)
        assert _same_bits(poly_eval(p, X), values)
        assert _same_bits(jacobian(p, X), J)
        for r in (0, len(X) // 2, len(X) - 1):
            assert _same_bits(poly_eval(p, X[r]), values[r]) and _same_bits(jacobian(p, X[r]), J[r])


@pytest.mark.parametrize("block", [core._BLOCK_FLOATS, 0])
@pytest.mark.parametrize("rows", [1, 3, 5000])
def test_stack_rows_equal_points_alone(rows, block):
    """Each row of a stack, through poly_eval, poly_eval_batch and jacobian,
    is bit for bit that point evaluated alone, whether the stack is summed in
    one block or a point at a time."""
    rng = np.random.default_rng(rows)
    p = PolyMap.from_strings(
        [["2 x1^3 x2", "-x2^2", "0.5"], ["x1 x2 x3", "3 x3^6", "-0.1 x1^5 x3"], []], 3
    )
    X = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    with mock.patch.object(core, "_BLOCK_FLOATS", block):
        points = np.array([poly_eval(p, x) for x in X])
        assert _same_bits(poly_eval(p, X), points)
        assert _same_bits(poly_eval_batch(p, X), points)
        assert _same_bits(jacobian(p, X), np.array([jacobian(p, x) for x in X]))
