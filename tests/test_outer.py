import inspect
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epidiff.composite import MultiplierSet, multipliers, sampled_objective
from epidiff.core import CompositeProblem, PolyMap
from epidiff.errors import (
    EmptyPolyhedron,
    NotASubgradient,
    PointNotInDomain,
    UndefinedValue,
    UnsupportedSpectralMultiplicity,
)
from epidiff.extreal import PLUS_INF, ExtReal
from epidiff.numkit import Polyhedron, intersect, lp_max, polyhedra, svec, smat
from epidiff.outer import (
    EigSumFunction,
    NegSemidefIndicator,
    PlqFunction,
    PlqPiece,
    PolyhedralIndicator,
    SmoothQuadratic,
    absolute_value,
    alpha_eig,
    max_eig,
    nonpositive_orthant,
    sum_top_eig,
    zero_function,
    zero_set,
)
from epidiff.outer.indicators import INDICATOR_FEAS_TOL
from epidiff.problem_io import parse_problem

from _instances import (
    estimate_second_subderivative,
    half_square_plq,
    max_of_coordinates_plq,
    outer_sampled,
    psd_base_data,
)


# -- evaluation -------------------------------------------------------------------


def test_eval_examples():
    assert absolute_value().value([0.5]).value == 0.5
    nsd = NegSemidefIndicator(2)
    assert nsd.value(svec(np.diag([0.0, -1.0]))).value == 0.0
    assert nsd.value(svec(np.diag([1.0, 0.0]))).is_plus_inf
    me = max_eig(2)
    assert me.value(svec(np.array([[0.0, 1.0], [1.0, 0.0]]))).value == pytest.approx(1.0)


def test_a_nan_matrix_has_no_eigenvalue_sum():
    """An eigenvalue sum of a matrix with a NaN entry is NaN, not the 0.0 that
    LAPACK's [0, -0] for [[nan, 0], [0, 0]] would give, so the oracle raises
    UndefinedValue; the semidefinite indicator keeps +inf there."""
    Z = np.array([[0.0, 0.0, -1.0], [np.nan, 0.0, 0.0], [-1.0, 0.0, np.nan]])
    for g in (max_eig(2), sum_top_eig(2, 2)):
        vals = g.value_batch(Z)
        assert vals[0] == g.value_batch(Z[:1])[0] and np.isnan(vals[1:]).all()
        with pytest.raises(UndefinedValue):
            outer_sampled(g).eval_batch(Z)
    assert list(NegSemidefIndicator(2).value_batch(Z)) == [0.0, np.inf, np.inf]


def test_semidefinite_indicator_at_its_tolerance_edge():
    """Rows whose largest eigenvalue sits a millionth below the tolerance
    INDICATOR_FEAS_TOL * (1 + |M|_F) read 0, and a millionth above read
    +inf, in a stack as alone.  The rows are small (|M|_F near the
    tolerance) and the closed form meets their largest eigenvalue to the
    last bit or so, far inside the millionth."""
    shapes = [lambda l: [[l, 0.0], [0.0, -l]], lambda l: [[0.0, l], [l, 0.0]],
              lambda l: [[l, 0.0], [0.0, l]], lambda l: [[l, 0.0], [0.0, 0.0]],
              lambda l: [[0.0, 0.0], [0.0, l]]]
    tol = INDICATOR_FEAS_TOL * (1.0 + np.array([np.linalg.norm(s(INDICATOR_FEAS_TOL)) for s in shapes]))
    Z = svec(np.array([s(t * f) for f in (1.0 - 1e-6, 1.0 + 1e-6) for s, t in zip(shapes, tol)]))
    nsd = NegSemidefIndicator(2)
    vals = nsd.value_batch(Z)
    assert list(vals) == [0.0] * len(shapes) + [np.inf] * len(shapes)
    assert list(vals) == [nsd.value_batch(z[None])[0] for z in Z]


# -- subdifferentials ----------------------------------------------------------------


def test_subdiff_examples():
    sd = absolute_value().subdifferential([0.0])
    assert sd.contains([-1.0]) and sd.contains([1.0]) and sd.contains([0.3])
    assert not sd.contains([1.5])
    nd = nonpositive_orthant(1).subdifferential([0.0])
    assert nd.contains([5.0]) and not nd.contains([-0.1])
    me = max_eig(2)
    rep = me.subdifferential(svec(np.diag([2.0, 1.0])))
    assert np.allclose(smat(rep.unique_element()), np.diag([1.0, 0.0]))
    # nontrivial eigenspace: trace-one spectrahedron membership
    rep_tie = me.subdifferential(svec(np.eye(2)))
    assert rep_tie.unique_element() is None
    assert rep_tie.contains(svec(np.diag([0.5, 0.5])))
    assert not rep_tie.contains(svec(np.diag([0.8, 0.5])))


# -- subderivatives ------------------------------------------------------------------


def test_subderivative_examples():
    assert absolute_value().subderivative([0.0], [-2.0]).value == pytest.approx(2.0)
    ind = nonpositive_orthant(1)
    assert ind.subderivative([0.0], [1.0]).is_plus_inf
    me = max_eig(2)
    val = me.subderivative(svec(np.diag([2.0, 1.0])), svec(np.array([[3.0, 0.0], [0.0, 9.0]])))
    assert val.value == pytest.approx(3.0)


# -- second subderivatives ----------------------------------------------------------------


def test_second_subderivative_examples():
    g = absolute_value()
    assert g.second_subderivative([0.0], [1.0], [3.0]).value == 0.0
    assert g.second_subderivative([0.0], [1.0], [-3.0]).is_plus_inf
    zA, zV = psd_base_data()
    nsd = NegSemidefIndicator(2)
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert nsd.second_subderivative(zA, zV, svec(W)).value == pytest.approx(2.0)
    me = max_eig(2)
    val = me.second_subderivative(
        svec(np.diag([2.0, 1.0])), svec(np.diag([1.0, 0.0])), svec(W)
    )
    assert val.value == pytest.approx(2.0)


def test_second_subderivative_eigenvalue_perturbation_series():
    # lam_max(diag(2,1) + t W) = 2 + t^2 W12^2 + O(t^4) for W with W11 = 0
    me = max_eig(2)
    A = np.diag([2.0, 1.0])
    rng = np.random.default_rng(8)
    for _ in range(10):
        W = rng.standard_normal((2, 2))
        W = 0.5 * (W + W.T)
        closed = me.second_subderivative(svec(A), svec(np.diag([1.0, 0.0])), svec(W))
        assert closed.value == pytest.approx(2.0 * W[0, 1] ** 2, abs=1e-10)


def test_sum_top_eig_smooth_part():
    # sum of the two largest eigenvalues with the top pair split: C2 part exact
    st2 = sum_top_eig(3, 2)
    A = np.diag([3.0, 1.0, 0.0])
    rep = st2.subdifferential(svec(A))
    assert np.allclose(smat(rep.unique_element()), np.diag([1.0, 1.0, 0.0]))
    W = np.zeros((3, 3))
    W[1, 2] = W[2, 1] = 1.0
    val = st2.second_subderivative(svec(A), rep.unique_element(), svec(W))
    # only the (lam2, lam3) pair crosses the cut: 2 * W23^2 / (1 - 0)
    assert val.value == pytest.approx(2.0)


def test_alpha_eig_group_bookkeeping():
    """alpha_eig is anchored where it is built: s is the start of the i-th
    eigenvalue's cluster there, and everywhere the value is the plain sum of
    the eigenvalues ranked s+1..i, with no re-clustering."""
    A = np.diag([2.0, 1.0, 1.0])
    a2 = alpha_eig(3, 2, svec(A))
    assert (a2.s, a2.i, a2.lipschitz_bound(svec(A))) == (1, 2, 1.0)
    assert a2.value(svec(A)).value == pytest.approx(1.0)
    A_tied = np.diag([2.0, 2.0, 0.0])
    assert a2.value(svec(A_tied)).value == pytest.approx(2.0)
    # lambda_s tied with lambda_(s+1): g is not C^2-reducible there
    with pytest.raises(UnsupportedSpectralMultiplicity):
        a2.subdifferential(svec(A_tied))
    # anchored at the tied point, the member counts the whole group
    assert alpha_eig(3, 2, svec(A_tied)).value(svec(A_tied)).value == pytest.approx(4.0)
    # splitting the anchor's cluster moves the value by the split only
    a_id = alpha_eig(2, 2, svec(np.eye(2)))
    assert a_id.value(svec(np.eye(2))).value == 2.0
    split = svec(np.diag([1.0 + 1e-6, 1.0 - 1e-6]))
    assert a_id.value(split).value == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, n))),
            st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n),
            st.lists(st.floats(-5e-7, 5e-7), min_size=n, max_size=n),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_eigenvalue_sum_is_lipschitz_across_split_clusters(case):
    """g = S_i - S_s is (i - s)-Lipschitz (Hoffman-Wielandt), also between a
    point with tied eigenvalues and a nearby one that splits the ties; the
    batch evaluates bit for bit like the pointwise value."""
    n, (s, i), lams, split, seed = case
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    A = Q @ np.diag(lams) @ Q.T
    B = Q @ np.diag(np.add(lams, split)) @ Q.T
    A, B = svec(0.5 * (A + A.T)), svec(0.5 * (B + B.T))
    g = EigSumFunction(n, s, i, "alpha_eig")
    values = [g.value(A).value, g.value(B).value]
    assert g.value_batch(np.array([A, B])).tolist() == values
    assert abs(values[0] - values[1]) <= g.lipschitz_bound(A) * np.linalg.norm(A - B) + 1e-12


def test_trace_second_subderivative_vanishes():
    # the full eigenvalue sum is linear: its curvature must cancel exactly
    # between the leading-group term and the smooth correction
    tr = sum_top_eig(3, 3)
    A = np.diag([2.0, 1.0, 1.0])
    rep = tr.subdifferential(svec(A))
    V = rep.unique_element()
    assert np.allclose(smat(V), np.eye(3))
    rng = np.random.default_rng(19)
    for _ in range(15):
        W = rng.standard_normal((3, 3))
        W = 0.5 * (W + W.T)
        val = tr.second_subderivative(svec(A), V, svec(W))
        assert val.value == pytest.approx(0.0, abs=1e-9)


def test_smooth_quadratic_examples():
    sq = SmoothQuadratic(PolyMap.zero(1), PolyMap.from_strings([["x1^2"]], 1))
    assert sq.parabolic_subderivative([0.0], [1.0], [5.0]).value == pytest.approx(1.0)
    assert sq.second_subderivative([0.0], [0.0], [3.0]).value == pytest.approx(9.0)
    with pytest.raises(NotASubgradient):
        sq.second_subderivative([0.0], [1.0], [3.0])


# -- parabolic subderivatives ---------------------------------------------------------------


def test_parabolic_examples():
    ind = nonpositive_orthant(1)
    assert ind.parabolic_subderivative([0.0], [0.0], [-1.0]).value == 0.0
    assert ind.parabolic_subderivative([0.0], [0.0], [1.0]).is_plus_inf
    g = absolute_value()
    assert g.parabolic_subderivative([0.0], [1.0], [7.0]).value == pytest.approx(7.0)


def test_second_order_tangent_examples():
    ind = nonpositive_orthant(1)
    assert ind.second_order_tangent_contains([0.0], [0.0], [-1.0])
    assert ind.second_order_tangent_contains([0.0], [-1.0], [10.0])
    assert not ind.second_order_tangent_contains([0.0], [0.0], [1.0])


def test_psd_second_order_tangent_closed_form():
    """At A = diag(0, -1) along W = [[0, 1], [1, 0]] the set is
    {U : U11 <= 2 (W A^+ W)11 = -2}: E0 = E1 = e1 since E0^T W E0 = 0."""
    nsd = NegSemidefIndicator(2)
    zA, _ = psd_base_data()
    W = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    inside = svec(np.array([[-2.5, 0.0], [0.0, 0.0]]))
    boundary = svec(np.array([[-2.0, 0.0], [0.0, 0.0]]))
    outside = svec(np.zeros((2, 2)))
    assert nsd.second_order_tangent_contains(zA, W, inside)
    assert nsd.second_order_tangent_contains(zA, W, boundary)
    assert not nsd.second_order_tangent_contains(zA, W, outside)
    # only U11 is constrained, so the other entries are free
    assert nsd.second_order_tangent_contains(zA, W, svec(np.array([[-2.0, 5.0], [5.0, 9.0]])))
    # W pointing into the cone on the zero cluster leaves U free; a W that
    # leaves the cone admits no arc at all
    assert nsd.second_order_tangent_contains(zA, svec(np.diag([-1.0, 0.0])), outside)
    assert not nsd.second_order_tangent_contains(zA, svec(np.diag([1.0, 0.0])), inside)


# -- critical cones -----------------------------------------------------------------------------


def test_critical_cone_examples():
    g = absolute_value()
    K = g.critical_cone([0.0], [1.0])
    assert K.contains([2.0]) and K.contains([0.0]) and not K.contains([-1e-3])
    ind = nonpositive_orthant(1)
    K0 = ind.critical_cone([0.0], [0.0])
    assert K0.contains([-1.0]) and not K0.contains([1.0])
    K2 = ind.critical_cone([0.0], [2.0])
    assert K2.contains([0.0]) and not K2.contains([-1.0]) and not K2.contains([1.0])


def test_domain_preconditions():
    with pytest.raises(PointNotInDomain):
        nonpositive_orthant(1).subdifferential([1.0])
    with pytest.raises(NotASubgradient):
        absolute_value().second_subderivative([0.0], [2.0], [1.0])


def test_dimension_mismatch_on_eval():
    from epidiff.errors import DimensionMismatch

    for g in (absolute_value(), nonpositive_orthant(2), NegSemidefIndicator(2), max_eig(2)):
        with pytest.raises(DimensionMismatch):
            g.value(np.zeros(g.ambient_dim + 1))


def test_spectral_members_check_the_dimension_of_every_argument():
    """The spectral members convert every argument through one
    dimension-checked conversion: a vector of the wrong length, or a matrix
    of the wrong size, raises DimensionMismatch wherever it is passed."""
    from epidiff.errors import DimensionMismatch

    for g in (max_eig(2), NegSemidefIndicator(2)):
        z, long = np.zeros(g.ambient_dim), np.zeros(2 * g.ambient_dim)
        calls = [lambda: g.value(long), lambda: g.subdifferential(long), lambda: g.subderivative(long, z),
                 lambda: g.subderivative(z, long), lambda: g.subderivative(z, np.zeros((3, 3)))]
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()


def test_every_member_takes_one_vector_of_its_length():
    """A point that is not one vector of length ambient_dim (a plain matrix,
    a one-row stack or a scalar) raises DimensionMismatch in the value, the
    subdifferential and the subderivative of every member."""
    from epidiff.errors import DimensionMismatch

    members = [absolute_value(), half_square_plq(), nonpositive_orthant(3), zero_set(3),
               NegSemidefIndicator(3), max_eig(3), sum_top_eig(3, 2),
               alpha_eig(3, 1, svec(np.diag([1.0, 0.0, 0.0]))), zero_function(3)]
    for g in members:
        m = g.ambient_dim
        for bad in (np.zeros((1, m)), -np.eye(3), np.float64(0.0)):
            for call in (lambda: g.value(bad), lambda: g.subdifferential(bad),
                         lambda: g.subderivative(bad, np.zeros(m))):
                with pytest.raises(DimensionMismatch):
                    call()


def test_one_subgradient_check_per_second_subderivative():
    """The semidefinite and eigenvalue second subderivatives check that y is
    a subgradient once, in critical_cone: one subdifferential per call."""
    z, y = psd_base_data()
    cases = [
        (NegSemidefIndicator(2), z, y, svec(np.diag([0.0, 1.0]))),
        (max_eig(2), svec(np.diag([2.0, 1.0])), svec(np.diag([1.0, 0.0])), svec(np.diag([0.0, 1.0]))),
    ]
    for g, z, y, u in cases:
        cls = type(g)
        with mock.patch.object(cls, "subdifferential", autospec=True, side_effect=cls.subdifferential) as sub:
            assert g.second_subderivative(z, y, u).is_finite
        assert sub.call_count == 1, g.tag


# -- invariants & properties ---------------------------------------------------------------------


def _catalog_instances():
    return [
        (absolute_value(), np.array([0.0]), np.array([1.0])),
        (half_square_plq(), np.array([0.0]), np.array([0.0])),
        (nonpositive_orthant(2), np.array([0.0, -1.0]), np.array([1.0, 0.0])),
        (NegSemidefIndicator(2), *psd_base_data()),
        (max_eig(2), svec(np.diag([2.0, 1.0])), svec(np.diag([1.0, 0.0]))),
        (
            sum_top_eig(3, 2),
            svec(np.diag([3.0, 1.0, 0.0])),
            svec(np.diag([1.0, 1.0, 0.0])),
        ),
        (
            SmoothQuadratic(
                PolyMap.from_strings([["x1^2", "x2^2"]], 2),
                PolyMap.from_strings([["2 x1^2", "2 x2^2"]], 2),
            ),
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
        ),
    ]


def test_convexity_spot_check():
    rng = np.random.default_rng(12)
    for g, z0, _ in _catalog_instances():
        for _ in range(500):
            a = z0 + rng.standard_normal(g.ambient_dim)
            b = z0 + rng.standard_normal(g.ambient_dim)
            va, vb = g.value(a), g.value(b)
            if va.is_plus_inf or vb.is_plus_inf:
                continue
            mid = g.value(0.5 * (a + b))
            assert mid.is_finite
            assert mid.value <= 0.5 * (va.value + vb.value) + 1e-9


def test_second_subderivative_nonnegative_for_convex():
    rng = np.random.default_rng(13)
    for g, z, y in _catalog_instances():
        for _ in range(60):
            u = rng.standard_normal(g.ambient_dim)
            val = g.second_subderivative(z, y, u)
            if val.is_finite:
                assert val.value >= -1e-9


def test_domain_law_matches_critical_cone():
    rng = np.random.default_rng(14)
    for g, z, y in _catalog_instances():
        cone = g.critical_cone(z, y)
        for _ in range(200):
            u = rng.standard_normal(g.ambient_dim)
            finite = g.second_subderivative(z, y, u).is_finite
            assert finite == cone.contains(u)


def test_parabolic_lipschitz_relative_to_domain():
    rng = np.random.default_rng(15)
    for g, z, y in _catalog_instances():
        ell = g.lipschitz_bound(z)
        cone = g.critical_cone(z, y)
        w = next(
            (
                cand
                for cand in (rng.standard_normal(g.ambient_dim) for _ in range(50))
                if cone.contains(cand)
            ),
            None,
        )
        if w is None:
            continue
        pairs = 0
        while pairs < 40:
            u1 = rng.standard_normal(g.ambient_dim) * 2
            u2 = rng.standard_normal(g.ambient_dim) * 2
            p1 = g.parabolic_subderivative(z, w, u1)
            p2 = g.parabolic_subderivative(z, w, u2)
            if p1.is_plus_inf or p2.is_plus_inf:
                pairs += 1  # outside the domain: nothing to compare
                continue
            assert abs(p1.value - p2.value) <= ell * np.linalg.norm(u1 - u2) + 1e-9
            pairs += 1


def test_second_subderivative_duality_against_parabolic_grid():
    """The second subderivative equals the grid-infimum of the parabolic
    subderivative minus the multiplier pairing, on critical directions."""
    rng = np.random.default_rng(16)
    zgrid = np.linspace(-10.0, 10.0, 81)
    for g, z, y in [
        (absolute_value(), np.array([0.0]), np.array([1.0])),
        (half_square_plq(), np.array([0.0]), np.array([0.0])),
        (nonpositive_orthant(1), np.array([0.0]), np.array([2.0])),
    ]:
        cone = g.critical_cone(z, y)
        candidates = [np.zeros(g.ambient_dim)] + [
            u for u in rng.standard_normal((40, g.ambient_dim)) if cone.contains(u)
        ]
        for u in candidates[:13]:
            closed = g.second_subderivative(z, y, u)
            best = PLUS_INF
            for zeta in zgrid:
                zeta_vec = np.array([zeta])
                par = g.parabolic_subderivative(z, u, zeta_vec)
                if par.is_finite:
                    cand = par - float(zeta_vec @ y)
                    if cand < best:
                        best = cand
            assert closed.is_finite and best.is_finite
            assert abs(closed.value - best.value) <= 0.05


def test_smooth_quadratic_homogeneity():
    sq = SmoothQuadratic(PolyMap.zero(2), PolyMap.from_strings([["x1^2", "x1 x2"]], 2))
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = rng.standard_normal(2)
        h2 = sq.value(2 * u).value - sq.value(np.zeros(2)).value
        h1 = sq.value(u).value
        assert h2 == pytest.approx(4.0 * h1, abs=1e-12)


def test_plq_spot_check_agreement():
    assert absolute_value().spot_check_agreement()
    assert half_square_plq().spot_check_agreement()
    assert max_of_coordinates_plq().spot_check_agreement()


def test_planar_plq_subdifferential_and_curvature():
    """max(y1, y2, 0): the subdifferential at the kink is a planar simplex and
    the second-order objects follow the active-piece algebra."""
    g = max_of_coordinates_plq()
    z = np.zeros(2)
    assert g.value([0.3, 0.7]).value == pytest.approx(0.7)
    assert g.value([-1.0, -2.0]).value == 0.0
    rep = g.subdifferential(z)
    for inside in ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.3]):
        assert rep.contains(inside), inside
    for outside in ([0.6, 0.6], [-0.1, 0.0], [1.1, 0.0]):
        assert not rep.contains(outside), outside
    y = np.array([0.5, 0.5])
    cone = g.critical_cone(z, y)
    assert cone.contains([2.0, 2.0]) and not cone.contains([1.0, 0.0])
    diag = np.array([1.0, 1.0])
    assert g.second_subderivative(z, y, diag).value == pytest.approx(0.0)
    assert g.second_subderivative(z, y, np.array([1.0, 0.0])).is_plus_inf
    # vertex multiplier: the critical cone opens to a quadrant-like set
    cone_vertex = g.critical_cone(z, np.array([1.0, 0.0]))
    assert cone_vertex.contains([1.0, 0.5]) and cone_vertex.contains([1.0, 1.0])
    assert not cone_vertex.contains([0.0, 1.0])
    # cross-check the kink curvature against the oracle on the diagonal
    est = estimate_second_subderivative(outer_sampled(g), z, y, diag)
    assert est.value == pytest.approx(0.0, abs=0.05)


# -- the polyhedral indicator as the one-piece PLQ member ------------------------------------


def test_plq_projection_survives_overflowing_distances():
    """Two pieces cover {z <= 0}.  Far out, both distances round to the same
    number, and beyond 1e154 they overflow to inf: the first piece's
    projection is kept in both cases, and a later piece wins only when it
    is strictly nearer."""
    g = PlqFunction([
        PlqPiece(Polyhedron.make(1, G=[[1.0], [-1.0]], h=[0.0, 1.0]), np.zeros((1, 1)), np.zeros(1), 0.0),
        PlqPiece(Polyhedron.make(1, G=[[1.0]], h=[-1.0]), np.zeros((1, 1)), np.zeros(1), 0.0),
    ])
    assert list(g.domain_project([-5.0])) == [-5.0]
    with np.errstate(over="ignore"):  # the distances at 1e160 overflow
        for far in (1e150, 1e160):
            assert list(g.domain_project([far])) == [0.0]
        assert g.domain_project(np.array([[1e160], [-5.0]])).tolist() == [[0.0], [-5.0]]


def test_the_polyhedral_indicator_is_the_one_piece_plq_member():
    """Its own methods only save work or keep its representations; every
    other object comes from the PLQ piece calculus."""
    assert issubclass(PolyhedralIndicator, PlqFunction)
    own = {name for name, val in vars(PolyhedralIndicator).items()
           if inspect.isfunction(val) or isinstance(val, (staticmethod, classmethod, property))}
    overrides = {"subdifferential", "critical_cone", "domain_project"}
    assert own <= {"__init__", "_detect_axis_bounds"} | overrides
    g = nonpositive_orthant(2)
    assert len(g.pieces) == 1 and not g.pieces[0].A.any() and not g.pieces[0].a.any()


def _unit_lattice(dim):
    """The points of {-1, 0, 1}^dim."""
    return [np.array(p, dtype=float) - 1.0 for p in np.ndindex(*(3,) * dim)]


@st.composite
def _active_polyhedra(draw):
    """(C, z, J, y0): integer rows, an integer base point z with at least one
    active row, an integer Jacobian J and a normal vector y0 at z."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, m))
    ints = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(ints, min_size=m, max_size=m).filter(any), min_size=1, max_size=4))
    G = np.array(rows, dtype=float)
    z = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float)
    active = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)).filter(any))
    slack = np.array([0.0 if a else draw(st.integers(1, 2)) for a in active])
    C = Polyhedron.make(m, G=G, h=G @ z + slack)
    J = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)), dtype=float)
    weights = np.array([draw(st.integers(0, 2)) if a else 0 for a in active], dtype=float)
    return C, z, J, weights @ G


@settings(max_examples=40, deadline=None)
@given(_active_polyhedra(), st.integers(0, 2**32 - 1))
def test_the_polyhedral_indicator_agrees_with_the_plain_one_piece_plq(case, seed):
    """PolyhedralIndicator(C) against the reference PlqFunction with the one
    zero piece on C, at an active base point: the same values, subgradients,
    critical directions, dual values and projections."""
    C, z, J, y0 = case
    m, n = J.shape
    ind = PolyhedralIndicator(C)
    ref = PlqFunction([PlqPiece(C, np.zeros((m, m)), np.zeros(m), 0.0)])
    rng = np.random.default_rng(seed)
    Z = np.vstack([z, z + 0.5 * rng.integers(-2, 3, size=(6, m)), 3.0 * rng.standard_normal((4, m))])
    assert ind.value_batch(Z).tolist() == ref.value_batch(Z).tolist()
    rep_ind, rep_ref = ind.subdifferential(z), ref.subdifferential(z)
    row = C.G[rng.integers(len(C.G))]
    for y in (y0, y0 + 0.5 * rng.integers(-2, 3, size=m), y0 - 0.5 * row):
        assert rep_ind.contains(y) == rep_ref.contains(y)
    cone_ind, cone_ref = ind.critical_cone(z, y0), ref.critical_cone(z, y0)
    for u in _unit_lattice(m):
        assert cone_ind.contains(u) == cone_ref.contains(u)
    v, tau = J.T @ y0, 1.0 + 2.0 * float(np.abs(y0).max())
    sets = [MultiplierSet(g, np.zeros(n), v, z, J, tau, rep, **rep.multiplier_set(J, v, tau))
            for g, rep in ((ind, rep_ind), (ref, rep_ref))]
    H = rng.integers(-3, 4, size=m).astype(float)
    for w in _unit_lattice(n):
        assert sets[0].cone.contains(w) == sets[1].cone.contains(w)
        if sets[0].cone.contains(w):
            (val_ind, _), (val_ref, _) = (g.dual_value(J @ w, H, ms) for g, ms in zip((ind, ref), sets))
            assert val_ind.value == pytest.approx(val_ref.value, abs=1e-9)
    P = 3.0 * rng.standard_normal((5, m))
    assert np.allclose(ind.domain_project(P), ref.domain_project(P), rtol=0.0, atol=1e-9)
    assert np.allclose(ind.domain_project(P[0]), ref.domain_project(P[0]), rtol=0.0, atol=1e-9)


def test_a_pullback_drops_the_rows_it_maps_to_rounding_noise():
    """The one-piece PLQ on C = {z2 + z3 <= 0} takes its critical cone's row
    from a rounded generator, (1.7e-16, 0.707, 0.707); under F(x) = (x, 0, 0)
    that row pulls back to 1.7e-16 w <= 0, which is noise, not a constraint.
    The pulled-back cone is all of R, as the indicator's is."""
    C = Polyhedron.make(3, G=[[0.0, 1.0, 1.0]], h=[0.0])
    F = PolyMap.from_strings([["x1"], [], []], 1)
    for g in (PolyhedralIndicator(C), PlqFunction([PlqPiece(C, np.zeros((3, 3)), np.zeros(3), 0.0)])):
        ms = multipliers(CompositeProblem(PolyMap.from_strings([[]], 1), F, g), np.zeros(1), np.zeros(1))
        assert ms.cone.contains([1.0]) and ms.cone.contains([-1.0])


def _slice_lp_dual(g, z, u, H, multys):
    """The reference dual of a PLQ member: per admissible piece i, an LP of
    <y, H> over the multipliers y with <y - grad_i(z), u> = 0, plus
    <A_i u, u>; the largest total, ties keeping the lower piece index."""
    P, best = multys.polyhedron, None
    utol = 1e-8 * (1.0 + float(np.linalg.norm(u)))
    for i in g._admissible(z, u):
        piece = g.pieces[i]
        row = Polyhedron.make(P.dim, E=u.reshape(1, -1), d=np.array([float(piece.grad(z) @ u)]))
        try:
            val, _ = lp_max(H, intersect(P, row))
        except EmptyPolyhedron:
            continue
        total = val + float(u @ piece.A @ u)
        if best is None or total > best + utol:
            best = total
    return PLUS_INF if best is None else ExtReal(best)


def _max_affine_plq(b, c, L) -> PlqFunction:
    """max_k <b_k, z> + c_k plus the shared PSD quadratic 0.5 <L^T L z, z>,
    piece k where map k is largest."""
    b, c, L = (np.array(a, dtype=float) for a in (b, c, L))
    return PlqFunction([PlqPiece(Polyhedron.make(b.shape[1], G=np.delete(b - b[k], k, axis=0),
                                                 h=np.delete(c[k] - c, k)), L.T @ L, b[k], c[k])
                        for k in range(len(b))])


@st.composite
def _max_affine_plqs(draw):
    """(g, z, J, y0): a max of 2-3 distinct integer affine maps on R^m plus
    one shared PSD quadratic, m <= 3, an integer base point z, an integer
    Jacobian J and a subgradient y0 weighting the active gradients at z."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    ints = st.integers(-2, 2)
    b = draw(st.lists(st.tuples(*[ints] * m), min_size=2, max_size=3, unique=True))
    c = draw(st.lists(st.integers(-1, 0), min_size=len(b), max_size=len(b)))
    L = draw(st.lists(st.lists(st.integers(-1, 1), min_size=m, max_size=m), min_size=1, max_size=m))
    g = _max_affine_plq(b, c, L)
    z = np.array(draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)), dtype=float)
    J = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)), dtype=float)
    active = g._active(z)
    weights = draw(st.lists(st.integers(0, 2), min_size=len(active), max_size=len(active)).filter(any))
    return g, z, J, sum(w * g.pieces[i].grad(z) for w, i in zip(weights, active)) / sum(weights)


# |x1 + 2 x2| at x = 0 with v = (0.5, 1): its critical directions
# +-(2, -1)/sqrt(5) map to rounding noise, which a slice LP's unit row made
# of it cuts every multiplier away from
@example((_max_affine_plq([[-1], [1]], [0, 0], [[0]]), np.zeros(1), np.array([[1.0, 2.0]]), np.array([0.5])), 0)
@settings(max_examples=60, deadline=None)
@given(_max_affine_plqs(), st.integers(0, 2**32 - 1))
def test_the_plq_dual_is_the_best_vertex_plus_one_piece_term(case, seed):
    """On every critical direction of a max-of-affine plus PSD quadratic PLQ
    (the cone's generators and its lattice points), the dual read off the
    multiplier polytope is finite, and it equals the per-piece slice LP
    wherever u = J w is not rounding noise."""
    g, z, J, y0 = case
    m, n = J.shape
    v = J.T @ y0
    tau = 1.0 + 2.0 * max(float(np.abs(g.pieces[i].grad(z)).max()) for i in g._active(z))
    rep = g.subdifferential(z)
    ms = MultiplierSet(g, np.zeros(n), v, z, J, tau, rep, **rep.multiplier_set(J, v, tau))
    H = np.random.default_rng(seed).integers(-3, 4, size=m).astype(float)
    lattice = [w / np.linalg.norm(w) for w in _unit_lattice(n) if w.any() and ms.cone.contains(w)]
    for w in ms.cone.directions() + lattice:
        u = J @ w
        val, _ = g.dual_value(u, H, ms)
        assert val.is_finite
        if np.linalg.norm(u) > 1e-12:
            assert val.value == pytest.approx(_slice_lp_dual(g, z, u, H, ms).value, abs=1e-9)


def test_the_plq_dual_enumerates_no_vertex(monkeypatch):
    """|x1 + 2 x2| at x = 0 with v = (0.5, 1): the multiplier set enumerates
    its vertices once, and the dual along the critical direction (2, -1)
    reads them; it solves no LP of its own."""
    g = absolute_value()
    z, J = np.zeros(1), np.array([[1.0, 2.0]])
    rep = g.subdifferential(z)
    v = np.array([0.5, 1.0])
    ms = MultiplierSet(g, np.zeros(2), v, z, J, 2.0, rep, **rep.multiplier_set(J, v, 2.0))
    calls = []
    original = polyhedra.vertices
    monkeypatch.setattr(polyhedra, "vertices", lambda P: calls.append(P) or original(P))
    w = np.array([2.0, -1.0]) / np.sqrt(5.0)
    val, arg = g.dual_value(J @ w, np.array([1.0]), ms)
    assert calls == []
    assert val.value == pytest.approx(0.5) and arg == pytest.approx([0.5])


@st.composite
def _points_near_a_piece_boundary(draw):
    """(b, c, z): a max of 2-4 distinct integer affine maps <b_k, z> + c_k on
    R^m, m <= 3, and a point z at most 1e-9 off the hyperplane where two of
    the maps tie, on either side."""
    m = draw(st.integers(1, 3))
    b = np.array(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m), min_size=2, max_size=4, unique=True)),
                 dtype=float)
    c = np.array(draw(st.lists(st.integers(-1, 1), min_size=len(b), max_size=len(b))), dtype=float)
    k, l = draw(st.permutations(range(len(b))))[:2]
    z = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    normal = b[k] - b[l]
    z = z - (normal @ z + c[k] - c[l]) / (normal @ normal) * normal
    off = draw(st.sampled_from([0.0, 1e-13, 1e-12, 5e-12, 1e-11, 1e-10, 1e-9]))
    return b, c, z + off * normal / np.linalg.norm(normal)


# |z| at z = 1e-12, which the piece z <= 0 read as -1e-12 when it was
# extrapolated across its boundary
@example((np.array([[-1.0], [1.0]]), np.zeros(2), np.array([1e-12])))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_points_near_a_piece_boundary())
def test_plq_values_near_a_piece_boundary_extrapolate_no_piece(case):
    """A point that a piece holds exactly reads that piece's value, not a
    neighbour's extrapolated one: a convex piecewise-linear PLQ equals the
    max of its affine maps to rounding, within 1e-9 of a piece boundary."""
    b, c, z = case
    g = _max_affine_plq(b, c, np.zeros((1, b.shape[1])))
    want = float(np.max(b @ z + c))
    assert g.value_batch(z[None])[0] == pytest.approx(want, abs=1e-14 * (1.0 + abs(want)))


def test_the_oracle_reads_zero_along_the_flat_kernel_of_plq_kernel():
    """|x1 + 2 x2| at x = 0 with v = (0.5, 1) is flat along (2, -1)/sqrt(5):
    its second subderivative there is 0, and the oracle, whose trial points
    lie on both sides of the kink, reads 0 to within 1e-9."""
    spec = parse_problem(str(Path(__file__).resolve().parent / "fixtures" / "plq_kernel.json"))
    f = sampled_objective(spec.problem)
    w = np.array([2.0, -1.0]) / np.sqrt(5.0)
    est = estimate_second_subderivative(f, spec.x, spec.v, w, replace(spec.schedule, seed=spec.seed))
    assert abs(est.value) <= 1e-9
