import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff import optimality

from epidiff.composite import sampled_objective, second_subderivative_chain
from epidiff.core import CompositeProblem, PolyMap, hessian, poly_eval
from epidiff.errors import BasePointInfeasible, NotStationary
from epidiff.oracle import estimate_second_subderivative
from epidiff.optimality import (
    check_sonc,
    check_ssosc,
    sms_certificate,
    stationary_data,
    verify_growth,
)
from epidiff.numkit import Polyhedron
from epidiff.outer import NegSemidefIndicator, PolyhedralIndicator, nonpositive_orthant, zero_function

from _instances import (
    eq_constrained_problem,
    old_restore,
    parabola_min_problem,
    quartic_problem,
)


def _sonc(prob, x, seed):
    return check_sonc(prob, stationary_data(prob, x, 1.0), seed=seed)


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
    assert rep.holds and rep.method == "extreme_rays"
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


def _old_verify_growth(prob, x, ell, epsilon, n_samples, seed):
    """verify_growth's per-sample loop before it drew ahead in blocks, with
    the reference restoration: (samples, violations)."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    psi0 = float(poly_eval(prob.phi, x)[0]) + prob.g.value(poly_eval(prob.F, x)).value
    distance = lambda u: float(np.linalg.norm(u - prob.g.domain_project(u)))  # noqa: E731
    kept = violations = attempts = 0
    while kept < n_samples and attempts < 20 * n_samples:
        attempts += 1
        step = rng.standard_normal(prob.n)
        step *= epsilon * rng.random() ** (1.0 / prob.n) / max(np.linalg.norm(step), 1e-300)
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
@given(
    case=st.sampled_from(["parabola_min", "quartic", "not_a_minimum", "wedge", "semidefinite"]),
    n_samples=st.integers(1, 120),
    block=st.sampled_from([1, 7, 256]),
    ell=st.sampled_from([0.01, 0.5, 2.0]),
    epsilon=st.sampled_from([0.05, 0.3]),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_growth_matches_its_per_sample_loop(case, n_samples, block, ell, epsilon, seed):
    """Drawing samples a block at a time, valuing and restoring each block in
    one stack, keeps and violates exactly the samples the per-sample loop
    does, whatever the block size."""
    prob, x = _growth_cases()[case]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimality, "GROWTH_BLOCK", block)
        rep = verify_growth(prob, x, ell=ell, epsilon=epsilon, n_samples=n_samples, seed=seed)
    assert (rep.samples, rep.violations) == _old_verify_growth(prob, x, ell, epsilon, n_samples, seed)


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
