"""Acceptance criteria, one test per criterion, each printing a PASS line with
the measured quantities.  Tolerances are pinned here and nowhere loosened."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from epidiff.cli import run
from epidiff.composite import check_basic_cq, check_mscq, multipliers, second_subderivative_chain
from epidiff.core import GridSchedule
from epidiff.numkit import svec
from epidiff.optimality import check_ssosc, sms_certificate, stationary_data, verify_growth
from epidiff.outer import NegSemidefIndicator, max_eig

from _instances import (
    a1_problem,
    abs_shift_problem,
    estimate_second_subderivative,
    example35_function,
    mscq_fail_problem,
    outer_sampled,
    parabola_min_problem,
    psd_base_data,
    quartic_problem,
    random_psd_instance,
    random_simple_top_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


def _json_block(text: str) -> dict:
    return json.loads(text.split("--- machine readable ---")[1])


def test_A1_chain_rule_analyze_and_verify():
    start = time.time()
    code, text = run(["analyze", _fixture("a1_parabola.json"), "--dir", "1,0"])
    assert code == 0
    entry = _json_block(text)["directions"][0]
    assert entry["dual"] == pytest.approx(-2.0, abs=1e-9)
    assert entry["primal"] == pytest.approx(-2.0, abs=1e-9)
    assert abs(entry["dual"] - entry["primal"]) <= 0.05
    code_v, text_v = run(["verify", _fixture("a1_parabola.json"), "--dir", "1,0"])
    assert code_v == 0
    row = _json_block(text_v)["directions"][0]
    assert row["converged"] and abs(row["oracle"] - (-2.0)) <= 0.05
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\n[A1] chain rule: dual=-2 primal=-2 oracle={row['oracle']:.4f} "
          f"({elapsed:.2f}s < 5s) PASS")


def test_A2_irregular_function_oracle_values():
    start = time.time()
    f = example35_function()
    sched = GridSchedule(t0=0.1, ratio=0.5, steps=21, radius_coeff=1.5, radius_exponent=1.0 / 3.0)
    est = estimate_second_subderivative(f, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], sched)
    assert est.is_finite and abs(est.value - (-2.0)) <= 0.05
    off = estimate_second_subderivative(f, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], sched)
    assert off.is_plus_inf
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\n[A2] irregular benchmark: est={est.value:.4f} (-2 ± 0.05), "
          f"off-cone=+inf ({elapsed:.2f}s < 10s) PASS")


def test_A3_psd_cone_second_subderivative():
    start = time.time()
    nsd2 = NegSemidefIndicator(2)
    zA, zV = psd_base_data()
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    closed = nsd2.second_subderivative(zA, zV, svec(W))
    assert closed.value == pytest.approx(2.0, abs=1e-12)
    est = estimate_second_subderivative(outer_sampled(nsd2), zA, zV, svec(W))
    assert abs(est.value - 2.0) <= 0.05
    rng = np.random.default_rng(303)
    checked = 0
    for k in range(10):
        n = 2 if k % 2 == 0 else 3
        A, V, Wr = random_psd_instance(rng, n)
        g = NegSemidefIndicator(n)
        c = g.second_subderivative(svec(A), svec(V), svec(Wr))
        o = estimate_second_subderivative(outer_sampled(g), svec(A), svec(V), svec(Wr))
        assert c.is_finite and o.is_finite
        tol = max(0.05, 0.05 * abs(c.value))
        assert abs(c.value - o.value) <= tol, (k, n, c.value, o.value)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[A3] negative semidefinite cone: base case 2.0 vs {est.value:.4f}, "
          f"{checked} random instances within max(0.05, 5%) ({elapsed:.1f}s < 60s) PASS")


def test_A4_eigenvalue_second_subderivative():
    start = time.time()
    me2 = max_eig(2)
    A = np.diag([2.0, 1.0])
    V = np.diag([1.0, 0.0])
    rng = np.random.default_rng(404)
    for _ in range(6):
        W = rng.standard_normal((2, 2))
        W = 0.5 * (W + W.T)
        closed = me2.second_subderivative(svec(A), svec(V), svec(W))
        assert closed.value == pytest.approx(2.0 * W[0, 1] ** 2, abs=1e-10)
    me3 = max_eig(3)
    checked = 0
    for k in range(10):
        A3, V3, W3 = random_simple_top_instance(rng, 3)
        c = me3.second_subderivative(svec(A3), svec(V3), svec(W3))
        o = estimate_second_subderivative(outer_sampled(me3), svec(A3), svec(V3), svec(W3))
        tol = max(0.05, 0.05 * abs(c.value))
        assert abs(c.value - o.value) <= tol, (k, c.value, o.value)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[A4] eigenvalue formula: diag case = 2*W12^2 exactly, "
          f"{checked} random 3x3 within max(0.05, 5%) ({elapsed:.1f}s < 60s) PASS")


def test_A5_duality_and_tau():
    infos = []
    for prob, x, v, kappa, w in [
        (a1_problem(), np.zeros(2), np.array([0.0, 1.0]), 1.0, np.array([1.0, 0.0])),
        (abs_shift_problem(), np.array([1.0]), np.array([1.0]), 0.0, np.array([1.0])),
    ]:
        info = second_subderivative_chain(prob, multipliers(prob, x, v, kappa=kappa), w)
        assert info.gap <= 0.05
        assert float(np.linalg.norm(info.argmax_y)) <= info.tau + 1e-8
        infos.append(info)
    a1 = infos[0]
    assert a1.tau == pytest.approx(1.0, abs=1e-12)
    assert a1.argmax_y[0] == pytest.approx(1.0, abs=1e-12)
    print(f"\n[A5] duality + tau: gaps {[f'{i.gap:.2e}' for i in infos]}, "
          f"A1 tau=1 y=1 exactly PASS")


@pytest.mark.parametrize(
    "fixture", ["a1_parabola.json", "plq_abs.json", "psd_cone.json"]
)
def test_A6_twice_epi_differentiability(fixture):
    code, text = run(["verify", _fixture(fixture)])
    assert code == 0
    rows = _json_block(text)["directions"]
    assert rows, fixture
    finite = [r for r in rows if r["formula"] != "+inf"]
    infinite = [r for r in rows if r["formula"] == "+inf"]
    assert all(r["converged"] for r in rows)
    assert all(r["oracle"] == "+inf" for r in infinite)
    print(f"\n[A6] {fixture}: {len(finite)} critical + {len(infinite)} off-cone "
          f"directions all converged PASS")


def test_A7_optimality_certificates():
    start = time.time()
    prob = parabola_min_problem()
    ssosc = check_ssosc(prob, stationary_data(prob, [0.0, 0.0], 1.0), seed=5)
    assert ssosc.holds and ssosc.worst_value.value == pytest.approx(2.0, abs=0.05)
    growth = verify_growth(prob, [0.0, 0.0], ell=1.0, epsilon=0.05, n_samples=2000, seed=5)
    assert growth.violations == 0 and growth.samples == 2000
    cert = sms_certificate(ssosc)
    assert cert.affirmative
    flat = quartic_problem()
    ssosc_flat = check_ssosc(flat, stationary_data(flat, [0.0], 1.0), seed=5)
    assert not ssosc_flat.holds
    growth_flat = verify_growth(flat, [0.0], ell=0.1, epsilon=0.5, n_samples=1000, seed=5)
    assert growth_flat.violations > 0
    assert not sms_certificate(ssosc_flat).affirmative
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[A7] optimality: SSOSC min {ssosc.worst_value.value:.3f} (2 ± 0.05), "
          f"growth 0/{growth.samples} violations, quartic rejected "
          f"({elapsed:.1f}s < 30s) PASS")


def test_A8_mscq_discrimination():
    good = check_mscq(a1_problem(), [0.0, 0.0], n_samples=240, radius=0.25, seed=8)
    assert good.holds_evidence and good.kappa_hat <= 2.0
    bad_prob = mscq_fail_problem()
    bad = check_mscq(bad_prob, [0.0], n_samples=240, radius=0.25, seed=8)
    assert not bad.holds_evidence
    assert not check_basic_cq(bad_prob, [0.0])
    print(f"\n[A8] constraint qualification: kappa_hat={good.kappa_hat:.3f} <= 2 holds, "
          f"degenerate instance rejected (basic CQ false) PASS")


def test_A9_property_suites():
    """Re-runs the per-module invariant bundles under a fixed seed; the full
    pytest suite containing them must stay under the 10-minute budget, which
    this bundle dominates."""
    import test_composite
    import test_core
    import test_extreal
    import test_numkit
    import test_optimality
    import test_oracle
    import test_outer

    bundle = [
        ("numkit reconstruction", test_numkit.test_sym_eig_reconstruction_random),
        ("numkit pseudoinverse", test_numkit.test_pinv_penrose_identities),
        ("numkit lp dominance", test_numkit.test_lp_max_dominates_random_feasible_points),
        ("numkit box tangent", test_numkit.test_box_vertex_tangent_cone_is_orthant),
        ("core derivative check", test_core.test_derivatives_match_central_differences),
        ("core exact evaluation", test_core.test_poly_eval_exact_on_integers),
        ("extreal laws", test_extreal.test_plus_inf_absorbs_addition),
        ("outer convexity", test_outer.test_convexity_spot_check),
        ("outer lower bound", test_outer.test_second_subderivative_nonnegative_for_convex),
        ("outer domain law", test_outer.test_domain_law_matches_critical_cone),
        ("outer parabolic lipschitz", test_outer.test_parabolic_lipschitz_relative_to_domain),
        ("outer duality grid", test_outer.test_second_subderivative_duality_against_parabolic_grid),
        ("oracle monotone refinement", test_oracle.test_monotone_refinement),
        ("oracle plus-inf consistency", test_oracle.test_plus_inf_consistency_off_critical_cone),
        ("composite duality", test_composite.test_duality_on_acceptance_instances),
        ("composite tau ball", test_composite.test_tau_ball_attainment),
        ("composite sandwich", test_composite.test_sandwich_estimates),
        ("composite domain law", test_composite.test_domain_law_chain),
        ("composite chain vs oracle", test_composite.test_chain_matches_oracle),
        ("composite cone equivalence", test_composite.test_critical_cone_equivalence_across_multipliers),
        ("optimality growth consistency", test_optimality.test_growth_consistent_with_ssosc),
        ("optimality sum rule", test_optimality.test_sum_rule_against_oracle),
        ("optimality sonc from ssosc", test_optimality.test_ssosc_implies_sonc),
    ]
    start = time.time()
    for label, fn in bundle:
        fn()
    elapsed = time.time() - start
    assert elapsed < 480.0
    print(f"\n[A9] property suites: {len(bundle)} invariant bundles re-ran green "
          f"({elapsed:.1f}s; suite budget 10min) PASS")
