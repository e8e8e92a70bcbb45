import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epidiff import optimality

from epidiff.composite import sampled_objective, second_subderivative_chain
from epidiff.core import CompositeProblem, PolyMap, hessian, poly_eval
from epidiff.errors import BasePointInfeasible, NotStationary
from epidiff.optimality import (
    check_sonc,
    check_ssosc,
    sms_certificate,
    stationary_data,
    verify_growth,
)
from epidiff.numkit import Polyhedron, ball_steps
from epidiff.outer import (
    NegSemidefIndicator,
    PolyhedralIndicator,
    SmoothQuadratic,
    nonpositive_orthant,
    zero_function,
)

from _instances import (
    eq_constrained_problem,
    estimate_second_subderivative,
    old_restore,
    parabola_min_problem,
    quartic_problem,
)


def _sonc(prob, x, seed):
    return check_sonc(check_ssosc(prob, stationary_data(prob, x, 1.0), seed=seed))


def _ssosc(prob, x, seed):
    return check_ssosc(prob, stationary_data(prob, x, 1.0), seed=seed)


def test_sonc_accepts_minimum():
    rep = _sonc(parabola_min_problem(), [0.0, 0.0], seed=1)
    assert rep.holds
    assert rep.worst_value.value == pytest.approx(2.0, abs=1e-9)
    assert abs(rep.worst_direction[0]) == pytest.approx(1.0)


def test_sonc_rejects_non_minimum():
    phi = PolyMap.from_strings([["-1 x2"]], 2)
    F = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    prob = CompositeProblem(phi, F, nonpositive_orthant(1))
    rep = _sonc(prob, [0.0, 0.0], seed=1)
    assert not rep.holds
    assert rep.worst_value.value == pytest.approx(-2.0, abs=1e-9)


def test_sonc_unconstrained_quadratic():
    prob = CompositeProblem(
        PolyMap.from_strings([["x1^2", "x2^2"]], 2), PolyMap.zero(2, 1), zero_function(1)
    )
    rep = _sonc(prob, [0.0, 0.0], seed=2)
    assert rep.holds and rep.worst_value.value == pytest.approx(2.0, abs=1e-6)


def test_ssosc_examples():
    rep = _ssosc(parabola_min_problem(), [0.0, 0.0], seed=1)
    assert rep.holds and rep.method == "faces"
    assert rep.worst_value.value == pytest.approx(2.0, abs=1e-9)
    flat = _ssosc(quartic_problem(), [0.0], seed=1)
    assert not flat.holds and flat.worst_value.value == pytest.approx(0.0, abs=1e-9)
    eq = _ssosc(eq_constrained_problem(), [0.0, 0.0], seed=1)
    assert eq.holds and eq.worst_value.value == pytest.approx(2.0, abs=1e-9)


def test_growth_examples():
    rep = verify_growth(parabola_min_problem(), [0.0, 0.0], ell=0.5, epsilon=0.1, n_samples=800, seed=2)
    assert rep.violations == 0 and rep.samples == 800
    flat = verify_growth(quartic_problem(), [0.0], ell=0.1, epsilon=0.5, n_samples=500, seed=2)
    assert flat.violations > 0
    # |x|^2 with ell = 2: the inequality is tight but never violated
    prob = CompositeProblem(
        PolyMap.from_strings([["x1^2", "x2^2"]], 2), PolyMap.zero(2, 1), zero_function(1)
    )
    tight = verify_growth(prob, [0.0, 0.0], ell=2.0, epsilon=1.0, n_samples=500, seed=3)
    assert tight.violations == 0


def test_sms_certificate():
    assert sms_certificate(_ssosc(parabola_min_problem(), [0.0, 0.0], seed=1)).affirmative
    assert not sms_certificate(_ssosc(quartic_problem(), [0.0], seed=1)).affirmative
    with pytest.raises(NotStationary):
        stationary_data(parabola_min_problem(), [0.5, 0.25], 1.0)


# -- invariants & properties --------------------------------------------------------


def test_growth_consistent_with_ssosc():
    prob = parabola_min_problem()
    rep = _ssosc(prob, [0.0, 0.0], seed=4)
    assert rep.holds
    ell = 0.5 * rep.worst_value.value
    for eps in (0.1, 0.05, 0.01):
        growth = verify_growth(prob, [0.0, 0.0], ell=ell, epsilon=eps, n_samples=700, seed=4)
        assert growth.violations == 0, eps


def test_growth_fails_when_not_a_minimum():
    # stationary but not a local minimum: growth must fail for every ell > 0
    phi = PolyMap.from_strings([["-1 x2"]], 2)
    F = PolyMap.from_strings([["x2", "-1 x1^2"]], 2)
    prob = CompositeProblem(phi, F, nonpositive_orthant(1))
    for ell in (1.0, 0.1, 0.01):
        rep = verify_growth(prob, [0.0, 0.0], ell=ell, epsilon=0.1, n_samples=400, seed=5)
        assert rep.violations > 0, ell


def test_growth_rejects_an_infeasible_base_point():
    """verify_growth checks its base point as multipliers and check_mscq do:
    F(x) outside dom g raises BasePointInfeasible."""
    with pytest.raises(BasePointInfeasible):
        verify_growth(parabola_min_problem(), [1.0, 0.0], ell=0.5, epsilon=0.1, n_samples=10, seed=0)


def _old_verify_growth(prob, x, ell, epsilon, n_samples, seed, block):
    """verify_growth's per-sample loop before it valued and restored in
    stacks, with the reference restoration: (samples, violations).  The
    samples are drawn as verify_growth draws them, one ball_steps block of
    min(still wanted, attempts left, block) at a time."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    psi0 = float(poly_eval(prob.phi, x)[0]) + prob.g.value(poly_eval(prob.F, x)).value
    distance = lambda u: float(np.linalg.norm(u - prob.g.domain_project(u)))  # noqa: E731
    kept = violations = attempts = 0
    while kept < n_samples and attempts < 20 * n_samples:
        count = min(n_samples - kept, 20 * n_samples - attempts, block)
        attempts += count
        for step in ball_steps(rng, count, prob.n, epsilon, 1.0 / prob.n):
            xp = x + step
            gval = prob.g.value(poly_eval(prob.F, xp))
            if not gval.is_finite:
                restored = old_restore(prob, xp, prob.g.domain_project, distance, max_iter=30)
                if restored is None or float(np.linalg.norm(restored - x)) > epsilon:
                    continue
                xp = restored
                gval = prob.g.value(poly_eval(prob.F, xp))
                if not gval.is_finite:
                    continue
            kept += 1
            psi = float(poly_eval(prob.phi, xp)[0]) + gval.value
            lower = psi0 + 0.5 * ell * float((xp - x) @ (xp - x)) - 1e-9
            if psi < lower:
                violations += 1
    return kept, violations


def _growth_cases():
    not_min = CompositeProblem(
        PolyMap.from_strings([["-1 x2"]], 2), PolyMap.from_strings([["x2", "-1 x1^2"]], 2),
        nonpositive_orthant(1),
    )
    wedge = PolyhedralIndicator(Polyhedron.make(2, G=[[1.0, 1.0], [-1.0, 2.0]], h=[0.0, 0.0]))
    quad = PolyMap.from_strings([["x1", "0.5 x2^2"], ["x2", "-0.25 x1 x2"]], 2)
    curved = CompositeProblem(PolyMap.from_strings([["x1^2", "x2^2", "0.3 x1"]], 2), quad, wedge)
    psd = CompositeProblem(
        PolyMap.from_strings([["x1^2", "x2^2", "x3^2"]], 3),
        PolyMap.from_strings([["x1", "0.2 x2^2"], ["x2"], ["x3", "-0.1 x1 x3"]], 3),
        NegSemidefIndicator(2),
    )
    return {
        "parabola_min": (parabola_min_problem(), np.zeros(2)),
        "quartic": (quartic_problem(), np.zeros(1)),
        "not_a_minimum": (not_min, np.zeros(2)),
        "wedge": (curved, np.zeros(2)),
        "semidefinite": (psd, np.zeros(3)),
    }


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
# pass edges at block 7: one block then the rest (13), two blocks (14), two
# then the rest (15) and three (21); at seeds 29 and 34 one sample of the
# three-block pass is restored outside the ball, so the pass keeps 20 and one
# more is drawn
@example(case="quartic", n_samples=13, block=7, ell=0.5, epsilon=0.3, seed=0)
@example(case="quartic", n_samples=14, block=7, ell=0.5, epsilon=0.3, seed=0)
@example(case="quartic", n_samples=15, block=7, ell=0.5, epsilon=0.3, seed=0)
@example(case="quartic", n_samples=21, block=7, ell=0.5, epsilon=0.3, seed=0)
@example(case="not_a_minimum", n_samples=13, block=7, ell=0.5, epsilon=0.3, seed=9)
@example(case="not_a_minimum", n_samples=14, block=7, ell=0.5, epsilon=0.05, seed=1)
@example(case="not_a_minimum", n_samples=15, block=7, ell=0.5, epsilon=0.05, seed=0)
@example(case="not_a_minimum", n_samples=21, block=7, ell=0.5, epsilon=0.3, seed=29)
@example(case="not_a_minimum", n_samples=21, block=7, ell=0.5, epsilon=0.3, seed=34)
@given(
    case=st.sampled_from(["parabola_min", "quartic", "not_a_minimum", "wedge", "semidefinite"]),
    n_samples=st.integers(1, 120),
    block=st.sampled_from([1, 7, 256]),
    ell=st.sampled_from([0.01, 0.5, 2.0]),
    epsilon=st.sampled_from([0.05, 0.3]),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_growth_matches_its_per_sample_loop(case, n_samples, block, ell, epsilon, seed):
    """Valuing and restoring each block of samples in one stack keeps and
    violates exactly the samples the per-sample loop does, at each block
    size (which sets the draws, as GROWTH_BLOCK does)."""
    prob, x = _growth_cases()[case]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimality, "GROWTH_BLOCK", block)
        rep = verify_growth(prob, x, ell=ell, epsilon=epsilon, n_samples=n_samples, seed=seed)
    assert (rep.samples, rep.violations) == _old_verify_growth(prob, x, ell, epsilon, n_samples, seed, block)


def test_a_growth_run_restores_its_settled_blocks_in_one_stack():
    """A 2000-sample run draws its seven full blocks (1792 samples) in one pass,
    whose size no outcome can change, and the rest in a second: two
    restoration stacks where block by block there were eight."""
    restore, rows = optimality._restore_feasible_points, []

    def counted(prob, X, max_iter):
        rows.append(len(X))
        return restore(prob, X, max_iter=max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimality, "_restore_feasible_points", counted)
        rep = verify_growth(parabola_min_problem(), np.zeros(2), ell=1.0, epsilon=0.1, n_samples=2000, seed=2)
    assert (rep.samples, rep.violations) == (2000, 0)
    assert len(rows) <= 2, rows


def test_sum_rule_against_oracle():
    """The optimality value decomposes as the objective Hessian form plus the
    composite dual value, and matches the oracle on the full objective."""
    prob = parabola_min_problem()
    x = np.zeros(2)
    v = np.array([0.0, -1.0])
    w = np.array([1.0, 0.0])
    info = second_subderivative_chain(prob, x, v, w, kappa=1.0)
    phi_form = float(w @ hessian(prob.phi, x) @ w)
    condition_value = phi_form + info.dual_value.value
    assert condition_value == pytest.approx(2.0, abs=1e-9)
    psi = sampled_objective(prob, include_phi=True)
    est = estimate_second_subderivative(psi, x, np.zeros(2), w)
    assert est.value == pytest.approx(condition_value, abs=0.05)


def test_ssosc_implies_sonc():
    for prob, x in [
        (parabola_min_problem(), np.zeros(2)),
        (quartic_problem(), np.zeros(1)),
        (eq_constrained_problem(), np.zeros(2)),
    ]:
        suff = _ssosc(prob, x, seed=6)
        nec = _sonc(prob, x, seed=6)
        if suff.holds:
            assert nec.holds


# -- the exact face-eigenvalue case -------------------------------------------------


def _quadratic_map(n, lin, quads) -> PolyMap:
    """The PolyMap whose component i is lin[i] . x + x^T quads[i] x, for
    symmetric quads[i]."""
    comps = []
    for a, B in zip(lin, quads):
        comp = [(float(a[j]), tuple(int(k == j) for k in range(n))) for j in range(n) if a[j] != 0.0]
        for i in range(n):
            for j in range(i, n):
                c = B[i, i] if i == j else 2.0 * B[i, j]
                if c != 0.0:
                    exps = [0] * n
                    exps[i] += 1
                    exps[j] += 1
                    comp.append((float(c), tuple(exps)))
        comps.append(comp)
    return PolyMap(n, comps)


def test_sonc_finds_a_negative_sliver_between_the_lattice_points():
    """On the nonnegative orthant of R^3, Q = I - c d d^T with d = (1, 1, 1) / sqrt 3
    is negative only within 0.03 rad of d, a sliver narrower than the spacing of
    the 1,024-point sphere lattice (about 0.11 rad) and far from the three
    rays, on which Q is 1 - c / 3 > 0.  The face kernel finds it: its minimum
    1 - c sits on the cone's interior face, at d."""
    d = np.ones(3) / np.sqrt(3.0)
    c = 1.0 / np.cos(0.03) ** 2
    Q = np.eye(3) - c * np.outer(d, d)
    prob = CompositeProblem(_quadratic_map(3, [np.zeros(3)], [0.5 * Q]), PolyMap.linear(-np.eye(3)),
                            nonpositive_orthant(3))
    for seed in (0, 1, 5):
        rep = _sonc(prob, np.zeros(3), seed=seed)
        assert rep.method == "faces" and not rep.holds
        assert rep.worst_value.value == pytest.approx(1.0 - c, abs=1e-9)
        assert np.allclose(rep.worst_direction, d, atol=1e-9)
        ssosc = _ssosc(prob, np.zeros(3), seed=seed)
        assert not ssosc.holds and ssosc.worst_value.value == pytest.approx(1.0 - c, abs=1e-9)


def _exact_case(kind: str, n: int, seed: int):
    """(problem, Q) at x = 0 with one multiplier y, whose condition quadratic
    is w^T Q w: Q = P + sum_i y_i Hess F_i + J^T M J from the data it was
    built of.  A polyhedral cone {A z <= 0} with y = A^T lam (M = 0) or a
    smooth quadratic g = b . z + z^T S z / 2 with y = b (M = S), under
    F = J x + quadratic terms."""
    rng = np.random.default_rng(seed)
    J = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    B = [0.5 * (R + R.T) for R in rng.standard_normal((n, n, n))]
    P = rng.standard_normal((n, n))
    P = P + P.T
    if kind == "polyhedral":
        A = rng.standard_normal((int(rng.integers(1, n + 2)), n))
        g = PolyhedralIndicator(Polyhedron.make(n, G=A, h=np.zeros(len(A))))
        y, M = A.T @ (rng.random(len(A)) * (rng.random(len(A)) < 0.3)), np.zeros((n, n))
    else:
        S = rng.standard_normal((n, n))
        M, y = S + S.T, rng.standard_normal(n)
        g = SmoothQuadratic(_quadratic_map(n, [y], [np.zeros((n, n))]), _quadratic_map(n, [np.zeros(n)], [M]))
    v = J.T @ y
    prob = CompositeProblem(_quadratic_map(n, [-v], [0.5 * P]), _quadratic_map(n, J, B), g)
    return prob, P + sum(yi * 2.0 * Bi for yi, Bi in zip(y, B)) + J.T @ M @ J


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["polyhedral", "smooth"]), n=st.integers(2, 3), seed=st.integers(0, 2 ** 16))
def test_the_sphere_lattice_never_goes_below_the_face_kernel(kind, n, seed):
    """In the exact case the kernel's minimum is the condition's minimum over
    the critical cone's unit sphere: the condition value at its direction is
    its eigenvalue, both conditions report that value, and no point of the
    dense lattice values lower."""
    prob, Q = _exact_case(kind, n, seed)
    base = stationary_data(prob, np.zeros(n), 1.0)
    ms = base[2]
    assert len(ms.multipliers) == 1
    value, w, _ = ms.cone.min_quadratic(Q)
    if w is None:
        return
    assert optimality._condition_value(prob, base, w).value == pytest.approx(value, abs=1e-9)
    ssosc = check_ssosc(prob, base, seed=0)
    for rep in (check_sonc(ssosc), ssosc):
        assert rep.method == "faces"
        assert rep.worst_value.value == pytest.approx(value, abs=1e-9)
    dirs = optimality.sample_critical_directions(prob, ms, optimality.N_DIRS, 0, dense=True)
    lattice, _ = optimality._least_condition(prob, base, dirs)
    assert lattice.value >= value - optimality.SSOSC_TOL
