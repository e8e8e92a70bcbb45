import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff import composite
from epidiff.composite import (
    _restore_feasible_point,
    _restore_feasible_points,
    chain_dual_value,
    check_basic_cq,
    check_mscq,
    critical_cone,
    multipliers,
    parabolic_chain,
    sampled_objective,
    second_subderivative_chain,
    subderivative_chain,
    tau_bound,
)
from epidiff.core import CompositeProblem, PolyMap, jacobian, poly_eval
from epidiff.errors import (
    EmptyMultiplierSet,
    PointNotInDomain,
    UnsupportedSpectralMultiplicity,
)
from epidiff.numkit import Polyhedron, ball_steps, lp_max, smat, svec, vertices
from epidiff.numkit.polyhedra import residuals
from epidiff.outer import (
    NegSemidefIndicator,
    PlqFunction,
    PlqPiece,
    PolyhedralIndicator,
    absolute_value,
    max_eig,
    nonpositive_orthant,
    sum_top_eig,
    zero_function,
)
from epidiff.problem_io import parse_problem

from _instances import (
    a1_problem,
    abs_shift_problem,
    estimate_second_subderivative,
    jacobi_one_matrix,
    old_restore,
    mscq_fail_problem,
    psd_base_data,
    psd_problem,
    two_multiplier_problem,
)

A1_X = np.zeros(2)
A1_V = np.array([0.0, 1.0])


# -- multipliers ------------------------------------------------------------------


def test_multipliers_examples():
    prob = a1_problem()
    ms = multipliers(prob, A1_X, A1_V, kappa=1.0)
    assert len(ms.multipliers) == 1 and ms.multipliers[0][0] == pytest.approx(1.0)
    assert ms.tau == pytest.approx(1.0)
    ms0 = multipliers(prob, A1_X, np.zeros(2), kappa=1.0)
    assert len(ms0.multipliers) == 1 and ms0.multipliers[0][0] == pytest.approx(0.0)
    # identity F pins the multiplier to v itself
    probA = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), absolute_value())
    msA = multipliers(probA, [0.0], [0.5], kappa=0.0)
    assert len(msA.multipliers) == 1 and msA.multipliers[0][0] == pytest.approx(0.5)
    msB = multipliers(probA, [0.0], [2.0], kappa=0.0)  # outside the subdifferential
    assert msB.is_empty


def test_multiplier_segment_vertices():
    ms = multipliers(two_multiplier_problem(), [0.0], [1.0], kappa=1.0)
    assert len(ms.multipliers) == 2
    assert np.allclose(ms.multipliers[0], [0.0, 1.0])
    assert np.allclose(ms.multipliers[1], [1.0, 0.0])


def test_multipliers_invariant():
    prob = two_multiplier_problem()
    ms = multipliers(prob, [0.0], [1.0], kappa=1.0)
    J = np.array([[1.0], [1.0]])
    rep = prob.g.subdifferential(np.zeros(2))
    for y in ms.multipliers:
        assert abs(float((J.T @ y)[0]) - 1.0) <= 1e-8
        assert rep.contains(y, 1e-8)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_polyhedral_dual_is_the_lp_over_the_multiplier_polytope():
    """The dual value maximizes over every vertex of the multiplier polytope,
    the list lp_max would walk, even one the membership checks dropped from
    ``multipliers``: the value and argmax stay those of lp_max."""
    prob = two_multiplier_problem()
    ms = multipliers(prob, [0.0], [1.0], kappa=1.0)
    assert _bits(ms.vertices) == _bits(vertices(ms.polyhedron))
    for H in (np.array([1.0, -1.0]), np.array([-1.0, 1.0]), np.array([0.5, 0.5])):
        expect = lp_max(H, ms.polyhedron)
        dropped = [y for y in ms.multipliers if not np.array_equal(y, expect[1])]
        for kept in (ms, replace(ms, multipliers=dropped)):
            val, arg = prob.g.dual_value(kept.z, np.zeros(2), H, kept)
            assert _bits([val.value, *arg]) == _bits([expect[0], *expect[1]])


def test_spectral_multiplier_unique_candidate():
    prob = psd_problem()
    zA, zV = psd_base_data()
    ms = multipliers(prob, zA, zV, kappa=1.0)
    assert len(ms.multipliers) == 1
    assert np.allclose(ms.multipliers[0], zV)
    # not a normal-cone element: empty set
    bad = multipliers(prob, zA, -zV, kappa=1.0)
    assert bad.is_empty


def test_tau_box_auto_enlargement():
    # an undersized Lipschitz constant shrinks the box past the multiplier;
    # the box doubles until the nonempty set reappears, and records it
    probA = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), absolute_value())
    ms = multipliers(probA, [0.0], [1.0], kappa=0.0, ell=0.1)
    assert not ms.is_empty
    assert ms.multipliers[0][0] == pytest.approx(1.0)
    assert ms.tau_enlargements >= 1


def test_spectral_multiplicity_guard():
    # clustered top eigenvalue with a rank-deficient adjoint must be reported
    phi = PolyMap.zero(1)
    F = PolyMap.from_strings([["x1"], [], []], 1)  # maps into svec(S^2)
    prob = CompositeProblem(phi, F, max_eig(2))
    with pytest.raises(UnsupportedSpectralMultiplicity):
        multipliers(prob, [0.0], [1.0], kappa=1.0)


# -- tau and Lipschitz data --------------------------------------------------------------


def test_lipschitz_constants():
    assert nonpositive_orthant(1).lipschitz_bound(np.array([0.0])) == 0.0
    assert absolute_value().lipschitz_bound(np.array([0.7])) == pytest.approx(1.0)
    assert sum_top_eig(3, 2).lipschitz_bound(svec(np.diag([3.0, 1.0, 0.0]))) == 2.0


def test_tau_examples():
    J1 = jacobian(a1_problem().F, A1_X)
    assert tau_bound(J1, A1_V, 1.0, 0.0) == pytest.approx(1.0)
    assert tau_bound(J1, A1_V, 0.0, 0.0) == 0.0
    assert tau_bound(np.array([[3.0]]), [1.0], 2.0, 1.0) == pytest.approx(9.0)


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_tau_computes_the_operator_norm_only_when_kappa_ell_is_positive(v, kappa, ell):
    """With ell = 0, as for every indicator, tau is kappa * |v| bit for bit
    and no operator norm runs; with kappa * ell > 0 the norm is called once."""
    J = np.arange(1.0, 1.0 + 2 * len(v)).reshape(len(v), 2)
    expected = kappa * float(np.linalg.norm(v))
    calls = []

    def no_norm(_):
        raise AssertionError("operator_norm called with kappa * ell = 0")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "operator_norm", no_norm)
        assert np.float64(tau_bound(J, v, kappa, 0.0)).tobytes() == np.float64(expected).tobytes()
        mp.setattr(composite, "operator_norm", lambda M: calls.append(M) or 2.0)
        if kappa * ell > 0:
            assert tau_bound(J, v, kappa, ell) == kappa * ell * 2.0 + expected + ell
            assert len(calls) == 1 and calls[0] is J
        else:
            assert tau_bound(J, v, kappa, ell) == expected + ell and not calls


# -- constraint qualifications -----------------------------------------------------------


def test_mscq_examples():
    good = check_mscq(a1_problem(), A1_X, n_samples=180, radius=0.25, seed=3)
    assert good.holds_evidence and good.kappa_hat <= 2.0
    bad = check_mscq(mscq_fail_problem(), [0.0], n_samples=180, radius=0.25, seed=3)
    assert not bad.holds_evidence
    ident = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), nonpositive_orthant(1))
    r = check_mscq(ident, [0.0], n_samples=120, radius=0.3, seed=1)
    assert r.holds_evidence and r.kappa_hat <= 1.0 + 1e-6


def test_basic_cq_examples():
    assert check_basic_cq(a1_problem(), A1_X)
    assert not check_basic_cq(mscq_fail_problem(), [0.0])
    free = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), zero_function(1))
    assert check_basic_cq(free, [0.0])
    assert check_basic_cq(psd_problem(), psd_base_data()[0])


def test_basic_cq_spectral_paths():
    # negative definite base point: normal cone is {0}
    prob = psd_problem()
    assert check_basic_cq(prob, svec(np.diag([-1.0, -2.0])))
    # identity F with a rank-one normal cone: kernel is trivial
    assert check_basic_cq(prob, psd_base_data()[0])
    # cluster of dimension 3 is out of scope and must be reported
    phi6 = PolyMap.zero(6)
    prob3 = CompositeProblem(phi6, PolyMap.identity(6), NegSemidefIndicator(3))
    with pytest.raises(UnsupportedSpectralMultiplicity):
        check_basic_cq(prob3, svec(np.zeros((3, 3))))


def _psd3_affine(J, scale):
    """F(x) = svec(diag(0, 0, -1)) + scale J x into S^3 with the negative
    semidefinite cone; at x = 0 the zero cluster is span(e1, e2), and
    adj(F') svec(E0 Theta E0^T) = scale J[:3]^T svec(Theta)."""
    J = np.asarray(J, dtype=float)
    base = svec(np.diag([0.0, 0.0, -1.0]))
    k = J.shape[1]
    comps = [
        [(base[i], (0,) * k)]
        + [(scale * J[i, j], tuple(int(c == j) for c in range(k))) for j in range(k)]
        for i in range(6)
    ]
    return CompositeProblem(PolyMap.zero(k), PolyMap(k, comps), NegSemidefIndicator(3))


def _block(rows):
    """A 6 x k Jacobian whose top 3 x k block (the svec(S^2) coordinates of
    the zero cluster) is rows^T and whose other rows are 1."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.vstack([rows.T, np.ones((3, rows.shape[0]))])


def test_basic_cq_two_dim_cluster():
    d = svec(np.diag([0.1, 0.9, 0.0]))
    planted = (np.eye(6) - np.outer(d, d) / float(d @ d))[:, :3]
    cases = [
        # kernel spanned by diag(0.1, 0.9), positive definite: CQ fails
        (planted, False),
        # trivial kernel
        (_block(np.eye(3)), True),
        # kernel spanned by diag(1, -1), indefinite
        (_block([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), True),
        # kernel plane tr Theta = 0, definite normal I
        (_block([[1.0, 0.0, 1.0]]), True),
        # kernel plane theta11 = theta22 holds I, indefinite normal
        (_block([[1.0, 0.0, -1.0]]), False),
        # the whole of S^2
        (_block(np.zeros((1, 3))), False),
    ]
    for J, holds in cases:
        for scale in (1.0, 16.0, 1.0 / 16.0):
            assert check_basic_cq(_psd3_affine(J, scale), np.zeros(J.shape[1])) == holds, (J, scale)
    for scale in (1.0, 16.0, 1.0 / 16.0):
        ident = CompositeProblem(
            PolyMap.zero(6), PolyMap.linear(scale * np.eye(6)), NegSemidefIndicator(3)
        )
        assert check_basic_cq(ident, svec(np.diag([0.0, 0.0, -1.0])) / scale)


def test_restoration_projects_far_from_a_polyhedral_domain(monkeypatch):
    """From this sample point of check-cq on polyhedron_m6.json (seed 11, 240
    samples), Gauss-Newton restoration runs off to |F(x)| about 6e15 before it
    turns back.  Every projection onto the polyhedron on the way succeeds and
    lands in it; the active-set enumeration found none past about 1e14,
    because its containment test scaled with the candidate, not with u."""
    spec = parse_problem(str(Path(__file__).parent / "fixtures" / "polyhedron_m6.json"))
    g = spec.problem.g
    seen = []

    def recording_project(z):
        first = len(seen)
        seen.extend((float(np.abs(row).max()), math.inf) for row in np.atleast_2d(z))
        p = type(g).domain_project(g, z)
        for i, row in enumerate(np.atleast_2d(p)):
            seen[first + i] = (seen[first + i][0], residuals(g.C, row))
        return p

    monkeypatch.setattr(g, "domain_project", recording_project)
    xp = np.array([-0.04367559640324119, 0.03126440965306517, -0.005593801632823578])
    restored = _restore_feasible_point(spec.problem, xp)
    assert max(size for size, _ in seen) > 1e14
    assert all(resid <= 1e-9 * (1.0 + size) for size, resid in seen)
    assert restored is None or g.value(poly_eval(spec.problem.F, restored)).is_finite


def test_restoration_into_an_empty_domain_returns_none():
    """An empty polyhedral domain cannot be projected onto: restoration
    reports failure instead of raising."""
    empty = PolyhedralIndicator(Polyhedron.make(1, G=[[1.0], [-1.0]], h=[-1.0, 0.0]))
    prob = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), empty)
    with pytest.raises(PointNotInDomain):
        empty.domain_project(np.array([0.5]))
    assert _restore_feasible_point(prob, np.array([0.5])) is None


def _old_psd_project(z):
    lams, Q = jacobi_one_matrix(smat(z))
    return svec(Q @ np.diag(np.minimum(lams, 0.0)) @ Q.T)


def _old_psd_distance(z):
    lams, _ = jacobi_one_matrix(smat(z))
    return float(np.linalg.norm(np.maximum(lams, 0.0)))


class _FarFailingHalfPlane(PolyhedralIndicator):
    """{u1 + u2 <= 0}, whose projection raises PointNotInDomain beyond
    |u|_inf = 1.5: a domain some rows of a stack cannot be projected onto."""

    def __init__(self):
        super().__init__(Polyhedron.make(2, G=[[1.0, 1.0]], h=[0.0]))

    def _project(self, z):
        if np.abs(z).max() > 1.5:
            raise PointNotInDomain("too far to project")
        return super()._project(z)


def _restore_cases():
    quad2 = PolyMap(2, [[(1.0, (1, 0)), (0.5, (0, 2)), (-0.3, (1, 1))], [(1.0, (0, 1)), (0.4, (2, 0))]])
    quad3 = PolyMap(3, [[(1.0, (1, 0, 0)), (0.3, (0, 2, 0))], [(1.0, (0, 1, 0)), (-0.2, (1, 0, 1))],
                        [(1.0, (0, 0, 1)), (0.25, (1, 1, 0))]])
    wedge = Polyhedron.make(3, G=[[1.0, 1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, -1.0, 1.0]], h=[0.2, 0.1, 0.3])
    empty = Polyhedron.make(1, G=[[1.0], [-1.0]], h=[-1.0, 0.0])
    m6 = parse_problem(str(Path(__file__).parent / "fixtures" / "polyhedron_m6.json")).problem
    psd = NegSemidefIndicator(2)
    return {
        "semidefinite": (CompositeProblem(PolyMap.zero(3), quad3, psd), _old_psd_project, _old_psd_distance),
        "orthant": (CompositeProblem(PolyMap.zero(2), quad2, nonpositive_orthant(2)), None, None),
        "polyhedron": (CompositeProblem(PolyMap.zero(3), quad3, PolyhedralIndicator(wedge)), None, None),
        "polyhedron_m6": (m6, None, None),
        "far_failing": (CompositeProblem(PolyMap.zero(2), quad2, _FarFailingHalfPlane()), None, None),
        "empty": (CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), PolyhedralIndicator(empty)), None, None),
    }


def _same_point(a, b) -> bool:
    return (a is None) == (b is None) and (a is None or np.array_equal(a.view(np.int64), b.view(np.int64)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(["semidefinite", "orthant", "polyhedron", "polyhedron_m6", "far_failing", "empty"]),
    rows=st.integers(1, 7),
    spread=st.sampled_from([0.05, 0.5, 2.0]),
    max_iter=st.sampled_from([3, 20, 60]),
    seed=st.integers(0, 2 ** 16),
)
def test_stacked_restoration_matches_the_per_point_loop(case, rows, spread, max_iter, seed):
    """Each row of a restoration stack ends bit for bit where the per-point
    Gauss-Newton loop ends it, or fails where that loop fails: on the
    semidefinite cone (stacked eigensolves), the orthant, polyhedra (row by
    row projections) and a domain whose projection raises for some rows.
    F at each restored row is returned bit for bit as F of that point alone,
    and NaN at a failed row."""
    prob, project, distance = _restore_cases()[case]
    project = project or prob.g.domain_project
    distance = distance or (lambda u: float(np.linalg.norm(u - prob.g.domain_project(u))))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, prob.n)) * spread
    Y, ok, U = _restore_feasible_points(prob, X, max_iter=max_iter)
    for x, y, found, u in zip(X, Y, ok, U):
        ref = old_restore(prob, x, project, distance, max_iter=max_iter)
        assert _same_point(y if found else None, ref)
        assert found or np.array_equal(y, x)
        assert _same_point(u, poly_eval(prob.F, y)) if found else np.isnan(u).all()
        assert _same_point(_restore_feasible_point(prob, x, max_iter=max_iter), ref)


def test_stacked_restoration_solves_singular_rows_by_least_squares():
    """dF has a zero row at x1 = 0, so J J^T is exactly singular there and a
    stacked solve raises for the whole stack; those rows fall back to least
    squares alone and every row matches the per-point loop."""
    F = PolyMap(2, [[(1.0, (2, 0))], [(1.0, (0, 1))]])
    half = PolyhedralIndicator(Polyhedron.make(2, G=[[-1.0, 0.0], [0.0, 1.0]], h=[-1.0, 0.0]))
    prob = CompositeProblem(PolyMap.zero(2), F, half)
    X = np.array([[0.0, 0.5], [0.7, 0.2], [0.0, -0.1], [-1.3, 0.4], [0.0, 2.0]])
    J = jacobian(F, X)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J @ J.swapaxes(1, 2), np.ones((len(X), 2, 1)))
    Y, ok, _ = _restore_feasible_points(prob, X)
    distance = lambda u: float(np.linalg.norm(u - half.domain_project(u)))  # noqa: E731
    for x, y, found in zip(X, Y, ok):
        assert _same_point(y if found else None, old_restore(prob, x, half.domain_project, distance))
    assert ok[1] and ok[3] and not ok[0]


def _old_check_mscq(prob, x, n_samples, radius, seed, project, distance):
    """check_mscq's per-sample loop before it restored in one stack, with
    the reference restoration; each level's samples are one ball_steps block.
    Returns (kappa_hat, worst, observations)."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    kappa_hat, worst, observations = 0.0, None, []
    for level, rad in enumerate((radius, radius / 2.0, radius / 4.0)):
        for step in ball_steps(rng, n_samples // 3 + (level < n_samples % 3), prob.n, rad, 1.0):
            xp = x + step
            dist_g = distance(poly_eval(prob.F, xp))
            if dist_g <= 1e-12:
                continue
            restored = old_restore(prob, xp, project, distance)
            dist_f = math.inf if restored is None else float(np.linalg.norm(restored - xp))
            ratio = dist_f / dist_g
            observations.append((float(np.linalg.norm(step)), ratio))
            if ratio > kappa_hat:
                kappa_hat, worst = ratio, xp
    return kappa_hat, worst, observations


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(["a1", "mscq_fail", "semidefinite", "polyhedron"]),
    n_samples=st.integers(1, 40),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_check_mscq_matches_its_per_sample_loop(case, n_samples, seed):
    """Drawing every sample first and restoring the infeasible ones in one
    stack gives the modulus, worst point and shell maxima of the loop."""
    if case == "a1":
        prob, x, project, distance = a1_problem(), A1_X, None, None
    elif case == "mscq_fail":
        prob, x, project, distance = mscq_fail_problem(), np.zeros(1), None, None
    else:
        prob, project, distance = _restore_cases()[case]
        x = np.zeros(prob.n)
    project = project or prob.g.domain_project
    distance = distance or (lambda u: float(np.linalg.norm(u - prob.g.domain_project(u))))
    got = check_mscq(prob, x, n_samples=n_samples, radius=0.3, seed=seed)
    kappa, worst, observations = _old_check_mscq(prob, x, n_samples, 0.3, seed, project, distance)
    assert got.kappa_hat == kappa and got.samples == n_samples
    assert _same_point(got.worst_point, worst)
    shells = []
    for k in range(5):
        vals = [r for d, r in observations if 0.3 * 0.5 ** (k + 1) < d <= 0.3 * 0.5 ** k]
        shells.append(max(vals) if vals else 0.0)
    assert got.ratios_by_radius == shells


# -- chain rules ---------------------------------------------------------------------------


def test_subderivative_chain_examples():
    prob = a1_problem()
    assert subderivative_chain(prob, A1_X, [1.0, 0.0]).value == 0.0
    assert subderivative_chain(prob, A1_X, [0.0, 1.0]).is_plus_inf
    probA = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), absolute_value())
    assert subderivative_chain(probA, [0.0], [-2.0]).value == pytest.approx(2.0)


def test_critical_cone_examples():
    prob = a1_problem()
    K = critical_cone(prob, A1_X, A1_V)
    assert K.contains([1.0, 0.0]) and K.contains([-3.0, 0.0])
    assert not K.contains([0.0, 1.0]) and not K.contains([0.0, -1.0])
    K0 = critical_cone(prob, A1_X, np.zeros(2))
    assert K0.contains([0.0, -1.0]) and not K0.contains([0.0, 1.0])
    probA = abs_shift_problem()
    KA = critical_cone(probA, [1.0], [1.0])
    assert KA.contains([1.0]) and not KA.contains([-1.0])


def test_parabolic_chain_examples():
    prob = a1_problem()
    assert parabolic_chain(prob, A1_X, [1.0, 0.0], [0.0, 2.0]).value == 0.0
    assert parabolic_chain(prob, A1_X, [1.0, 0.0], [0.0, 1.0]).value == 0.0
    assert parabolic_chain(prob, A1_X, [1.0, 0.0], [0.0, 3.0]).is_plus_inf
    probA = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), absolute_value())
    assert parabolic_chain(probA, [0.0], [1.0], [3.0]).value == pytest.approx(3.0)


def test_second_subderivative_chain_examples():
    prob = a1_problem()
    info = second_subderivative_chain(prob, A1_X, A1_V, [1.0, 0.0], kappa=1.0)
    assert info.dual_value.value == pytest.approx(-2.0)
    assert info.primal_value.value == pytest.approx(-2.0)
    assert info.argmax_y[0] == pytest.approx(1.0)
    assert info.gap <= 1e-9
    off = second_subderivative_chain(prob, A1_X, A1_V, [0.0, 1.0], kappa=1.0)
    assert off.dual_value.is_plus_inf and off.primal_value.is_plus_inf
    probA = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), absolute_value())
    zero = second_subderivative_chain(probA, [0.0], [0.0], [0.0], kappa=0.0)
    assert zero.dual_value.value == 0.0


def test_primal_value_examples():
    prob = a1_problem()
    assert second_subderivative_chain(prob, A1_X, A1_V, [1.0, 0.0]).primal_value.value == pytest.approx(-2.0)
    probA = abs_shift_problem()
    assert second_subderivative_chain(probA, [1.0], [1.0], [1.0]).primal_value.value == pytest.approx(0.0)
    # off the critical cone the primal value is +inf
    assert second_subderivative_chain(prob, A1_X, A1_V, [0.0, 1.0]).primal_value.is_plus_inf


# Golden values, derived by hand: the spectral primal values are closed forms
# and meet the dual exactly.


def test_closed_form_primal_golden_negsemidef():
    """A = diag(0, -1), V = diag(1, 0), W = [[0, 0.4], [0.4, -0.8]], F = id:
    E0 = E1 = e1 because W11 = 0, and W A^+ W = [[-0.16, 0.32], [0.32, -0.64]].
    The primal LP minimizes -U11 over U11 <= 2 (W A^+ W)11 = -0.32, so
    primal = 0.32 = -2 <V, W A^+ W> = dual."""
    zA, zV = psd_base_data()
    w = svec(np.array([[0.0, 0.4], [0.4, -0.8]]))
    info = second_subderivative_chain(psd_problem(), zA, zV, w, kappa=1.0)
    assert info.primal_value.value == pytest.approx(0.32, abs=1e-12)
    assert abs(info.primal_value.value - info.dual_value.value) <= 1e-12


def test_closed_form_primal_golden_max_eig():
    """F(x) = svec([[1, x/sqrt2], [x/sqrt2, -x^2]]) at x = 0 along w = 1:
    A = diag(1, 0) with a simple top eigenvalue, W = [[0, 1], [1, 0]] / sqrt2
    and H = diag(0, -2).  The parabolic value U11 + 2 (W (I - A)^+ W)11 is
    affine with gradient e1 e1^T, which dF annihilates, so
    primal = 2 (W (I - A)^+ W)11 = 1 = dual."""
    F = PolyMap.from_strings([["1"], ["x1"], ["-1 x1^2"]], 1)
    prob = CompositeProblem(PolyMap.zero(1), F, max_eig(2))
    info = second_subderivative_chain(prob, [0.0], [0.0], [1.0], kappa=1.0)
    assert info.primal_value.value == pytest.approx(1.0, abs=1e-12)
    assert abs(info.primal_value.value - info.dual_value.value) <= 1e-12


def test_primal_dual_two_column_cluster():
    """S^3 at A = diag(0, 0, -1), F = id: W couples e1 and e2 to e3 only, so
    E0^T W E0 = 0 and E1 is the whole 2-dimensional zero cluster; the
    second-order tangent set is semidefinite, not polyhedral.  With
    p = (W13, W23) = (1, 2) and V = [[1, 0.5], [0.5, 1]] on the cluster,
    dual = -2 <V, W A^+ W> = 2 p^T V p = 14, and the primal conjugate value
    at the unique multiplier must equal it."""
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 1.0
    W[1, 2] = W[2, 1] = 2.0
    V = np.zeros((3, 3))
    V[:2, :2] = [[1.0, 0.5], [0.5, 1.0]]
    prob = CompositeProblem(PolyMap.zero(6), PolyMap.identity(6), NegSemidefIndicator(3))
    x, v = svec(np.diag([0.0, 0.0, -1.0])), svec(V)
    info = second_subderivative_chain(prob, x, v, svec(W), kappa=1.0)
    assert info.dual_value.value == pytest.approx(14.0, abs=1e-12)
    assert abs(info.primal_value.value - info.dual_value.value) <= 1e-12


def test_plq_primal_dual_golden_several_pieces():
    """max(z1, z2, 0) + z1^2 / 2 through a quadratic F: two pieces are
    admissible along u = (1, 1) and the multipliers form a segment."""
    A = np.diag([1.0, 0.0])
    pieces = [
        PlqPiece(Polyhedron.make(2, G=[[-1.0, 1.0], [-1.0, 0.0]], h=[0.0, 0.0]), A, np.array([1.0, 0.0]), 0.0),
        PlqPiece(Polyhedron.make(2, G=[[1.0, -1.0], [0.0, -1.0]], h=[0.0, 0.0]), A, np.array([0.0, 1.0]), 0.0),
        PlqPiece(Polyhedron.make(2, G=[[1.0, 0.0], [0.0, 1.0]], h=[0.0, 0.0]), A, np.zeros(2), 0.0),
    ]
    F = PolyMap.from_strings([["x1", "x2^2"], ["x1", "-0.5 x2^2", "0.3 x1 x2"]], 2)
    prob = CompositeProblem(PolyMap.zero(2), F, PlqFunction(pieces))
    x, v, w = np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.7])
    ms = multipliers(prob, x, v, kappa=1.0)
    assert len(ms.multipliers) == 2
    info = second_subderivative_chain(prob, x, v, w, kappa=1.0, multys=ms)
    assert f"{info.primal_value.value:.12g}" == "1.98"
    assert f"{info.dual_value.value:.12g}" == "1.98"
    assert np.allclose(info.argmax_y, [1.0, 0.0], atol=1e-12)


def test_empty_multiplier_raise():
    probA = CompositeProblem(PolyMap.zero(1), PolyMap.identity(1), absolute_value())
    with pytest.raises(EmptyMultiplierSet):
        second_subderivative_chain(probA, [0.0], [2.0], [1.0], kappa=0.0)


# -- invariants & properties -----------------------------------------------------------------


def _acceptance_instances():
    zA, zV = psd_base_data()
    return [
        ("a1", a1_problem(), A1_X, A1_V, 1.0, [np.array([1.0, 0.0]), np.array([-0.5, 0.0])]),
        ("abs", abs_shift_problem(), np.array([1.0]), np.array([1.0]), 0.0, [np.array([1.0]), np.array([2.0])]),
        (
            "psd",
            psd_problem(),
            zA,
            zV,
            1.0,
            [svec(np.array([[0.0, 1.0], [1.0, 0.0]])), svec(np.array([[0.0, 0.4], [0.4, -0.8]]))],
        ),
    ]


def test_duality_on_acceptance_instances():
    for name, prob, x, v, kappa, dirs in _acceptance_instances():
        for w in dirs:
            info = second_subderivative_chain(prob, x, v, w, kappa=kappa)
            assert info.dual_value.is_finite, name
            tol = max(0.05, 0.05 * abs(info.dual_value.value))
            assert info.gap <= tol, (name, info.gap)


def test_tau_ball_attainment():
    for name, prob, x, v, kappa, dirs in _acceptance_instances():
        for w in dirs:
            info = second_subderivative_chain(prob, x, v, w, kappa=kappa)
            assert info.argmax_y is not None
            assert float(np.linalg.norm(info.argmax_y)) <= info.tau + 1e-8, name


def test_sandwich_estimates():
    for name, prob, x, v, kappa, dirs in _acceptance_instances():
        ms = multipliers(prob, x, v, kappa=kappa)
        zbar = prob.F(x)
        from epidiff.core import jacobian, second_form

        J = jacobian(prob.F, x)
        for w in dirs:
            info = second_subderivative_chain(prob, x, v, w, kappa=kappa, multys=ms)
            H = second_form(prob.F, x, w)
            for y in ms.multipliers:
                term = prob.g.second_subderivative(zbar, y, J @ w)
                if term.is_finite:
                    lower = float(np.asarray(y) @ H) + term.value
                    assert lower <= info.dual_value.value + 1e-8, name
            assert info.dual_value.value <= info.primal_value.value + max(
                0.05, 0.05 * abs(info.dual_value.value)
            )


def test_domain_law_chain():
    rng = np.random.default_rng(31)
    for name, prob, x, v, kappa, _ in _acceptance_instances():
        ms = multipliers(prob, x, v, kappa=kappa)
        cone = critical_cone(prob, x, v, ms)
        for _ in range(100):
            w = rng.standard_normal(prob.n)
            dual, _ = chain_dual_value(prob, x, v, w, ms)
            assert dual.is_finite == cone.contains(w), name


def test_chain_matches_oracle():
    sched_kwargs = {}
    for name, prob, x, v, kappa, dirs in _acceptance_instances():
        f = sampled_objective(prob)
        for w in dirs[:1]:
            info = second_subderivative_chain(prob, x, v, w, kappa=kappa)
            est = estimate_second_subderivative(f, x, v, w)
            tol = max(0.05, 0.05 * abs(info.dual_value.value))
            assert abs(est.value - info.dual_value.value) <= tol, (name, est, info.dual_value)


def test_critical_cone_equivalence_across_multipliers():
    prob = two_multiplier_problem()
    ms = multipliers(prob, [0.0], [1.0], kappa=1.0)
    assert len(ms.multipliers) >= 2
    zbar = np.zeros(2)
    J = np.array([[1.0], [1.0]])
    rng = np.random.default_rng(33)
    for _ in range(40):
        w = rng.standard_normal(1)
        answers = {
            bool(prob.g.critical_cone(zbar, y).contains(J @ w)) for y in ms.multipliers
        }
        assert len(answers) == 1


def test_multiplier_polyhedron_vertex_enumeration():
    ms = multipliers(two_multiplier_problem(), [0.0], [1.0], kappa=1.0)
    assert ms.polyhedron is not None
    vs = vertices(ms.polyhedron)
    assert len(vs) == 2


def test_plq_dual_with_multiplier_segment():
    """f(x) = max(x, 0) through F(x) = (x, x): the multiplier set is an edge of
    the planar subdifferential and the piecewise dual still lands on zero."""
    from _instances import max_of_coordinates_plq

    prob = CompositeProblem(
        PolyMap.zero(1), PolyMap.from_strings([["x1"], ["x1"]], 1), max_of_coordinates_plq()
    )
    ms = multipliers(prob, [0.0], [1.0], kappa=1.0)
    assert len(ms.multipliers) == 2
    cone = critical_cone(prob, [0.0], [1.0], ms)
    assert cone.contains([2.0]) and not cone.contains([-1.0])
    info = second_subderivative_chain(prob, [0.0], [1.0], [1.0], kappa=1.0, multys=ms)
    assert info.dual_value.value == pytest.approx(0.0)
    assert info.primal_value.value == pytest.approx(0.0)
    est = estimate_second_subderivative(sampled_objective(prob), [0.0], [1.0], [1.0])
    assert est.value == pytest.approx(0.0, abs=0.05)
