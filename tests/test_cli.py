import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epidiff.cli import build_parser, run
from epidiff.problem_io import parse_problem, parse_problem_dict

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


def _json_block(text: str) -> dict:
    return json.loads(text.split("--- machine readable ---")[1])


# -- parsing ---------------------------------------------------------------------


def test_parse_minimal_problem():
    spec = parse_problem(_fixture("a1_parabola.json"))
    assert spec.problem.n == 2 and spec.problem.m == 1
    assert list(spec.v) == [0.0, 1.0]
    assert spec.kappa == 1.0


def test_parse_errors():
    with pytest.raises(Exception) as err:
        parse_problem_dict({"phi": ["x1"], "F": [["x1"]], "g": {"tag": "ind_negsemidef"}, "x": [0.0]})
    assert "requires n" in str(err.value)
    with pytest.raises(Exception) as err2:
        parse_problem_dict({"phi": ["x1"], "F": [["x1"]], "g": {"tag": "ind_nonpos"}, "x": [0.0]})
    assert "requires dim" in str(err2.value)
    code, text = run(["analyze", _fixture("missing.json")])
    assert code == 3 and "error" in text


def test_parse_requires_integral_counts():
    """dim, n, i, the seed and the schedule's counts take integral numbers
    only: no truncation, no booleans."""
    base = {"phi": ["x1"], "F": [["x1"]], "x": [0.0]}
    for g in ({"tag": "ind_nonpos", "dim": 1.5}, {"tag": "ind_nonpos", "dim": True},
              {"tag": "ind_nonpos", "dim": "1"}, {"tag": "max_eig", "n": float("nan")},
              {"tag": "alpha_eig", "n": 1, "i": 2.5}):
        with pytest.raises(Exception) as err:
            parse_problem_dict(dict(base, g=g))
        assert "must be an integer" in str(err.value)
    spec = parse_problem_dict(dict(base, g={"tag": "ind_nonpos", "dim": 1.0}, seed=7.0,
                                   schedule={"steps": 4.0}))
    assert spec.problem.m == 1 and spec.seed == 7 and spec.schedule.steps == 4


def test_parse_rejects_mismatched_plq():
    data = {
        "phi": ["x1"],
        "F": [["x1"]],
        "g": {
            "tag": "plq",
            "dim": 1,
            "pieces": [{"G": [[1.0, 0.0]], "h": [0.0], "A": [[0.0]], "a": [0.0]}],
        },
        "x": [0.0],
    }
    with pytest.raises(Exception):
        parse_problem_dict(data)


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, text = run(["analyze", str(p)])
    assert code == 3


def test_parse_every_tag():
    payloads = [
        ({"tag": "ind_nonpos", "dim": 2}, 2),
        ({"tag": "ind_polyhedron", "dim": 2, "G": [[1.0, 0.0]], "h": [0.0]}, 2),
        ({"tag": "abs"}, 1),
        (
            {
                "tag": "plq",
                "dim": 1,
                "pieces": [
                    {"G": [[1.0]], "h": [0.0], "A": [[0.0]], "a": [-1.0]},
                    {"G": [[-1.0]], "h": [0.0], "A": [[0.0]], "a": [1.0]},
                ],
            },
            1,
        ),
        ({"tag": "ind_negsemidef", "n": 2}, 3),
        ({"tag": "max_eig", "n": 2}, 3),
        ({"tag": "sum_top_eig", "n": 2, "i": 2}, 3),
        ({"tag": "alpha_eig", "n": 2, "i": 1}, 3),
        ({"tag": "twice_semidiff", "dim": 2, "base": ["x1"], "h": ["x2^2"], "center": [0.0, 0.0]}, 2),
        ({"tag": "zero", "dim": 1}, 1),
    ]
    for payload, m in payloads:
        x = [0.0] if m == 1 else [0.0] * 2
        feasible = {
            "ind_nonpos": [0.0, 0.0],
            "ind_polyhedron": [0.0, 0.0],
            "ind_negsemidef": [0.0, 0.0, -1.0],
        }.get(payload["tag"])
        data = {
            "phi": [],
            "F": [[f"x{j + 1}"] for j in range(m)] if m <= 2 else [["x1"], ["x2"], ["x3"]],
            "g": payload,
            "x": feasible if feasible is not None else [0.0] * m,
        }
        if m == 3:
            data["x"] = feasible if feasible is not None else [0.0, 0.0, 0.0]
        spec = parse_problem_dict(data)
        assert spec.problem.m == m, payload["tag"]


def test_parse_rejects_inhomogeneous_h():
    data = {
        "phi": [],
        "F": [["x1"]],
        "g": {"tag": "twice_semidiff", "dim": 1, "base": [], "h": ["x1^3"]},
        "x": [0.0],
    }
    with pytest.raises(Exception) as err:
        parse_problem_dict(data)
    assert "homogeneous" in str(err.value)


# -- reports ------------------------------------------------------------------------


def test_analyze_golden_values():
    code, text = run(["analyze", _fixture("a1_parabola.json")])
    assert code == 0
    block = _json_block(text)
    assert block["multipliers"] == [[1.0]]
    assert block["tau"] == 1.0
    duals = {entry["dual"] for entry in block["directions"]}
    primals = {entry["primal"] for entry in block["directions"]}
    assert duals == {-2.0} and primals == {-2.0}
    assert all(entry["argmax_y"] == [1.0] for entry in block["directions"])


def test_analyze_polyhedron_m6_golden_values():
    """All six constraints of a non-axis polyhedron in R^6 are active, and four
    of their pulled-back normals lie in one plane, so the multiplier set is a
    polygon (five vertices once the tau box cuts it) and the critical cone is
    the ray -e3.  The dual value there is max y3 over that polygon, which is
    5/12 at y = (0, 1/3, 5/12, 1/12, 0, 0), computed by hand."""
    code, text = run(["analyze", _fixture("polyhedron_m6.json")])
    assert code == 0
    block = _json_block(text)
    data = json.loads(Path(_fixture("polyhedron_m6.json")).read_text())
    assert block["tau"] == pytest.approx(float(np.linalg.norm(data["v"])), rel=1e-9)
    G = np.array(data["g"]["G"], dtype=float)
    J = np.array([[1, 0, 0], [-1, 1, 0], [2, 0, 0], [0, -1, 0], [0, 1, 1], [1, 0, 0]], dtype=float)
    ys = np.array(block["multipliers"])
    assert ys.shape == (5, 6)
    assert np.allclose(ys @ J, data["v"], atol=1e-9)
    assert np.all(np.linalg.solve(G.T, ys.T) >= -1e-9)  # y = G^T lam with lam >= 0
    (entry,) = block["directions"]
    assert np.allclose(entry["direction"], [0.0, 0.0, -1.0], atol=1e-12)
    assert entry["dual"] == pytest.approx(5.0 / 12.0, abs=1e-9)
    assert entry["primal"] == pytest.approx(5.0 / 12.0, abs=1e-9)
    assert np.allclose(entry["argmax_y"], [0.0, 1.0 / 3.0, 5.0 / 12.0, 1.0 / 12.0, 0.0, 0.0], atol=1e-9)
    assert entry["provenance"] == "closed-form"


def _analyze_duals(fixture, dirs, expected):
    """Run analyze along the given directions and check every dual against
    its hand-derived value, primal = dual and the closed-form provenance."""
    argv = ["analyze", _fixture(fixture)] + [f"--dir={d}" for d in dirs]
    code, text = run(argv)
    assert code == 0
    entries = _json_block(text)["directions"]
    assert len(entries) == len(expected)
    for entry, want in zip(entries, expected):
        assert entry["provenance"] == "closed-form"
        if want == "+inf":
            assert entry["dual"] == entry["primal"] == "+inf"
            continue
        assert entry["dual"] == pytest.approx(want, abs=1e-9)
        assert abs(entry["primal"] - entry["dual"]) <= 1e-9 * (1.0 + abs(want))
    return _json_block(text)


def test_analyze_max_eig_golden_values():
    """A(x) = [[1 + x1 + x2^2, x2/sqrt2], [x2/sqrt2, x1 - x2^2]] at x = 0:
    A = diag(1, 0) with a simple top eigenvalue, so y = e1 e1^T is the only
    multiplier (v = dF^T y = (1, 0)) and every w is critical.  With
    W = [[w1, w2/sqrt2], [w2/sqrt2, w1]] and H11 = 2 w2^2:
    dual = H11 + 2 (W diag(0, 1) W)11 = 2 w2^2 + w2^2 = 3 w2^2."""
    block = _analyze_duals("max_eig.json", ["1,0", "0,1", "0.6,0.8"], [0.0, 3.0, 1.92])
    assert block["multipliers"] == [[1.0, 0.0, 0.0]]


def test_analyze_sum_top_eig_golden_values():
    """Sum of the top two eigenvalues at A = diag(3, 1, 0), with x1 and x2
    entering A31 and A32 as x/sqrt2 and x2^2 added to A11: y = diag(1, 1, 0),
    v = 0, and the smooth second-order form gives
    dual = H11 + 2 (W31^2 / 3 + W32^2 / 1) = 2 w2^2 + w1^2 / 3 + w2^2."""
    _analyze_duals("sum_top_eig.json", ["1,0", "0,1", "0.6,0.8"], [1.0 / 3.0, 3.0, 2.04])


def test_analyze_alpha_eig_golden_values():
    """The middle eigenvalue of A = diag(3, 1, 0), with x1 in A21 and x2 in
    A32 (each as x/sqrt2) and x2^2 added to A22: y = e2 e2^T, v = 0, and
    dual = H22 + 2 (W21^2 / (1 - 3) + W23^2 / (1 - 0))
    = 2 w2^2 - w1^2 / 2 + w2^2."""
    _analyze_duals("alpha_eig.json", ["1,0", "0,1", "0.6,0.8"], [-0.5, 3.0, 1.74])


def test_analyze_plq_2d_golden_values():
    """g(z) = max(z1, z2, 0) + z1^2 / 2 through F = (x1 + x2^2,
    x1 - x2^2 / 2 + 0.3 x1 x2) at x = 0 with v = (1, 0): dF = [[1, 0], [1, 0]],
    so the multipliers form the segment from (1, 0) to (0, 1) and w is
    critical iff w1 >= 0.  Along w the pieces add w1^2 and
    H = (2 w2^2, -w2^2 + 0.6 w1 w2), so dual = max(H1, H2) + w1^2:
    1.98 at (1, 0.7), 2 at (0, 1), 1 at (1, 0) and +inf at (-1, 0)."""
    block = _analyze_duals("plq_2d.json", ["1,0.7", "0,1", "1,0", "-1,0"], [1.98, 2.0, 1.0, "+inf"])
    ys = sorted(np.round(block["multipliers"], 9).tolist())
    assert ys == [[0.0, 1.0], [1.0, 0.0]]


def test_analyze_off_cone_direction_renders_plus_inf():
    code, text = run(["analyze", _fixture("a1_parabola.json"), "--dir", "0,1"])
    assert code == 0
    entry = _json_block(text)["directions"][0]
    assert entry["dual"] == "+inf" and entry["primal"] == "+inf"
    assert entry["reason"] == "outside critical cone"


def test_analyze_empty_multipliers_exit_2(tmp_path):
    data = json.loads(Path(_fixture("a1_parabola.json")).read_text())
    data["v"] = [1.0, 0.0]  # not in the image of the adjoint on the normal cone
    p = tmp_path / "bad_v.json"
    p.write_text(json.dumps(data))
    code, text = run(["analyze", str(p)])
    assert code == 2


def test_determinism_byte_identical():
    run1 = run(["analyze", _fixture("a1_parabola.json")])
    run2 = run(["analyze", _fixture("a1_parabola.json")])
    assert run1 == run2
    v1 = run(["verify", _fixture("plq_abs.json")])
    v2 = run(["verify", _fixture("plq_abs.json")])
    assert v1 == v2


def test_runs_in_one_process_report_as_separate_processes():
    """run shares one argument parser: two runs in one process, each with
    its own --dir list, print what each prints in a process of its own."""
    assert build_parser() is build_parser()
    a1 = _fixture("a1_parabola.json")
    argvs = [["analyze", a1, "--dir", "1,0", "--dir", "0,1"], ["analyze", a1, "--dir", "0.6,0.8"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for argv in argvs:
        code, text = run(argv)
        alone = subprocess.run([sys.executable, "-m", "epidiff", *argv], capture_output=True, text=True, env=env)
        assert (code, text + "\n") == (alone.returncode, alone.stdout)


def test_seed_override_changes_directions():
    _, t1 = run(["analyze", _fixture("psd_cone.json"), "--seed", "1"])
    _, t2 = run(["analyze", _fixture("psd_cone.json"), "--seed", "2"])
    assert _json_block(t1)["directions"] != _json_block(t2)["directions"]
    os.environ["EPIDIFF_SEED"] = "1"
    try:
        _, t3 = run(["analyze", _fixture("psd_cone.json"), "--seed", "2"])
    finally:
        del os.environ["EPIDIFF_SEED"]
    assert _json_block(t3)["directions"] == _json_block(t1)["directions"]


@pytest.mark.parametrize("fixture", ["a1_parabola.json", "polyhedron_m6.json", "min_quartic.json"])
@pytest.mark.parametrize("seed", [0, 3])
def test_off_cone_probes_are_the_first_non_members_of_one_block(fixture, seed):
    """The off-cone probes of _direction_set are the first off_cone rows of
    one unit_rows block of 60 * off_cone seeded with seed + 1 that the cone
    does not contain, tested in order and no further than needed.  A cone
    that holds every probe (the full space of the zero function's cone)
    adds none after the whole block."""
    from epidiff import cli, composite
    from epidiff.numkit import dedupe, unit_rows
    from epidiff.numkit.polyhedra import DEDUP_TOL

    spec = parse_problem(_fixture(fixture))
    kappa = cli._resolve_kappa(spec, seed)[0]
    ms = composite.multipliers(spec.problem, spec.x, spec.v, kappa=kappa, ell=spec.ell)
    tested, contains = [], ms.cone.contains

    def recording(w):
        tested.append(np.array(w))
        return contains(w)

    ms.cone.contains = recording
    base = cli._direction_set(spec, ms, seed)
    before = len(tested)
    tested.clear()
    off_cone = 2
    got = cli._direction_set(spec, ms, seed, off_cone=off_cone)
    probes = tested[before:]
    block = unit_rows(np.random.default_rng(seed + 1), 60 * off_cone, spec.problem.n)
    assert all(p.tobytes() == row.tobytes() for p, row in zip(probes, block))
    off = [p for p in probes if not contains(p)]
    if fixture == "min_quartic.json":
        assert len(probes) == len(block) and off == []
    else:
        assert len(off) == off_cone and not contains(probes[-1])
    assert [w.tobytes() for w in got] == [w.tobytes() for w in dedupe(base + off, DEDUP_TOL)]


def test_verify_exit_codes_and_break_hook():
    code, text = run(["verify", _fixture("plq_abs.json")])
    assert code == 0
    block = _json_block(text)
    assert all(row["converged"] for row in block["directions"])
    os.environ["EPIDIFF_BREAK_FORMULA"] = "1.0"
    try:
        code_bad, _ = run(["verify", _fixture("plq_abs.json")])
    finally:
        del os.environ["EPIDIFF_BREAK_FORMULA"]
    assert code_bad == 1


# The semidefinite cone under a near-identity linear map; the z search's last
# point lies where the full schedule finds no feasible ball point.
BOUNDARY_Z_PROBLEM = {
    "phi": [],
    "F": [["0.9066533261586913 x1", "0.16727590727538813 x2", "0.40825838693188293 x3", "0.14912751467789312"],
          ["0.006519935350427607 x1", "1.2290106801628722 x2", "-0.08397141229725812 x3", "0.13517652636321914"],
          ["0.09427846100268014 x1", "-0.04070024849850823 x2", "0.764561569730519 x3", "-0.7844204588711771"]],
    "g": {"tag": "ind_negsemidef", "n": 2},
    "x": [-0.21200796252755105, -0.06427889238019802, 0.12851273075044256],
    "v": [1.0720200623110732, 0.28839349596246594, 0.477967674456155],
    "kappa": 1.0,
    "seed": 1627720428,
}


def test_verify_values_the_z_search_path_when_its_end_is_infinite(tmp_path):
    """The parabolic z search ends at a z that the full schedule values at
    +inf; the check falls back on the finite points the search passed
    through, so parabolic regularity holds and verify exits 0."""
    p = tmp_path / "boundary_z.json"
    p.write_text(json.dumps(BOUNDARY_Z_PROBLEM))
    code, text = run(["verify", str(p), "--dir=-0.3004186584346168,0.9483840036349273,0.10156973620981463"])
    (row,) = _json_block(text)["directions"]
    assert code == 0 and row["converged"]
    assert row["parabolic_regularity"]["holds"] and row["parabolic_regularity"]["rhs"] != "+inf"


def test_certify_exit_codes(tmp_path):
    code, text = run(["certify", _fixture("parabola_min.json")])
    assert code == 0
    block = _json_block(text)
    assert block["ssosc"]["holds"] and block["sms_certificate"]["affirmative"]
    data = json.loads(Path(_fixture("parabola_min.json")).read_text())
    data["x"] = [0.5, 0.5]  # feasible but not stationary
    p = tmp_path / "nonstationary.json"
    p.write_text(json.dumps(data))
    code2, _ = run(["certify", str(p)])
    assert code2 == 2
    # the oracle judges a failing SSOSC on the worst value the hook shifts
    os.environ["EPIDIFF_BREAK_FORMULA"] = "1.0"
    try:
        code_bad, _ = run(["certify", _fixture("polyhedron_m6.json")])
    finally:
        del os.environ["EPIDIFF_BREAK_FORMULA"]
    assert code_bad == 1


def test_certify_on_the_critical_cone_zero_judges_nothing(tmp_path):
    """min x1 subject to x1 >= 0: the multiplier 1 is strictly positive, so
    the critical cone is {0}.  SSOSC holds vacuously, with no finite worst
    value to grow at and no failing direction for the oracle."""
    p = tmp_path / "orthant_1d.json"
    p.write_text(json.dumps({"phi": ["x1"], "F": [["-1 x1"]], "g": {"tag": "ind_nonpos", "dim": 1},
                             "x": [0.0], "kappa": 1.0}))
    code, text = run(["certify", str(p)])
    block = _json_block(text)
    assert code == 0 and block["ssosc"]["holds"] is True and block["ssosc"]["worst_value"] == "+inf"
    assert block["growth"] == [] and "oracle" not in block


def test_certify_runs_each_condition_and_cone_once(monkeypatch):
    """One certify runs check_ssosc once (the certificate and SONC reuse its
    report), builds the base point's multiplier set once, and pulls the
    catalog's critical cone back once, not once per valued direction or per
    condition.  The cone of parabola_min is a line, one face, so the one
    kernel run values one direction on it."""
    from epidiff import optimality
    from epidiff.outer import PolyhedralIndicator
    from epidiff.outer.reprs import PolyhedralConeRepr

    calls = {"ssosc": 0, "sets": 0, "cone": 0, "values": 0, "kernel": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimality, "check_ssosc", counted("ssosc", optimality.check_ssosc))
    monkeypatch.setattr(optimality, "multipliers", counted("sets", optimality.multipliers))
    monkeypatch.setattr(
        PolyhedralIndicator, "critical_cone", counted("cone", PolyhedralIndicator.critical_cone)
    )
    monkeypatch.setattr(optimality, "_condition_value", counted("values", optimality._condition_value))
    monkeypatch.setattr(
        PolyhedralConeRepr, "min_quadratic", counted("kernel", PolyhedralConeRepr.min_quadratic)
    )
    code, text = run(["certify", _fixture("parabola_min.json")])
    assert code == 0 and _json_block(text)["ssosc"]["method"] == "faces"
    assert calls["values"] == 1 and calls["kernel"] == 1
    assert calls["ssosc"] == 1
    # the base point's set is built once and shared by both conditions
    assert calls["sets"] == 1 and calls["cone"] == calls["sets"]


def test_certify_sampled_conditions_report_one_least_value():
    """Off the exact case both conditions judge the one scan of check_ssosc:
    on the spectral fixtures SONC and SSOSC report the same worst value and
    direction from the refined sphere lattice, and on the 1-D cone of
    plq_abs the lattice dedupes to the cone's one ray."""
    for fixture, value in (("sum_top_eig.json", 1.0 / 3.0), ("alpha_eig.json", -0.5)):
        code, text = run(["certify", _fixture(fixture)])
        block = _json_block(text)
        sonc, ssosc = block["sonc"], block["ssosc"]
        assert code == 0 and sonc["method"] == ssosc["method"] == "sphere_grid"
        for rep in (sonc, ssosc):
            assert rep["worst_value"] == pytest.approx(value, abs=1e-9), fixture
        assert np.allclose(sonc["worst_direction"], ssosc["worst_direction"], atol=1e-9)
        assert sonc["holds"] == ssosc["holds"] == (value > 0)
    code, text = run(["certify", _fixture("plq_abs.json")])
    block = _json_block(text)
    assert code == 0
    for rep in (block["sonc"], block["ssosc"]):
        assert rep["method"] == "sphere_grid" and rep["directions_tested"] == 1
        assert rep["worst_value"] == 0.0


ONE_PIECE_PLQ_PROBLEM = {
    "phi": [],
    "F": [["x1"], ["x2", "0.5 x1^2"]],
    "g": {"tag": "plq", "dim": 2, "pieces": [{"G": [[0, 1]], "h": [0], "A": [[1, 0], [0, 2]]}]},
    "x": [0.0, 0.0],
    "v": [0.0, 1.0],
    "seed": 5,
}


def test_certify_takes_the_exact_path_on_a_one_piece_plq(tmp_path, monkeypatch):
    """A one-piece PLQ member's second-order term is its piece's quadratic on
    the whole critical cone, so certify scans the faces, and finds the worst
    value that the sampled scan finds when the member hides its matrix."""
    from epidiff.outer import PlqFunction

    p = tmp_path / "one_piece_plq.json"
    p.write_text(json.dumps(ONE_PIECE_PLQ_PROBLEM))
    code, text = run(["certify", str(p)])
    exact = _json_block(text)["ssosc"]
    assert code == 0 and exact["method"] == "faces" and exact["directions_tested"] == 2
    monkeypatch.setattr(PlqFunction, "second_order_matrix", lambda self, z, y: None)
    code, text = run(["certify", str(p)])
    sampled = _json_block(text)["ssosc"]
    assert code == 0 and sampled["method"] == "sphere_grid"
    assert exact["worst_value"] == pytest.approx(sampled["worst_value"], abs=1e-9) == 1.0
    assert exact["holds"] and sampled["holds"]


def test_certify_builds_the_base_subdifferential_once(monkeypatch):
    """The multiplier set and the critical cone share the one subdifferential
    of g at F(x) that multipliers builds: certify parabola_min computes one
    normal cone."""
    from epidiff.outer import plq

    calls = []
    original = plq.normal_cone_hrep
    monkeypatch.setattr(plq, "normal_cone_hrep", lambda polys, z: calls.append(z) or original(polys, z))
    code, _ = run(["certify", _fixture("parabola_min.json")])
    assert code == 0 and len(calls) == 1


def test_a_flat_kernel_direction_gets_the_zero_dual_and_no_sms_claim(monkeypatch):
    """psi(x) = |x1 + 2 x2| at x = 0 with v = (0.5, 1): the multiplier is
    y = 0.5, and the critical directions +-(2, -1)/sqrt(5) span ker dF, where
    u = dF w is rounding noise.  psi is flat along them, so the formula is 0
    there, SSOSC fails with worst value 0 and no SMS claim is made.  The
    oracle, not a growth run, judges that failing verdict."""
    from epidiff import optimality

    growth_calls = []
    verify_growth = optimality.verify_growth

    def counted(*args, **kwargs):
        growth_calls.append(1)
        return verify_growth(*args, **kwargs)

    monkeypatch.setattr(optimality, "verify_growth", counted)
    code, text = run(["verify", _fixture("plq_kernel.json")])
    rows = [r for r in _json_block(text)["directions"]
            if abs(r["direction"][0] + 2.0 * r["direction"][1]) < 1e-9]
    assert code == 0 and len(rows) == 2
    assert all(r["formula"] == 0.0 and r["converged"] for r in rows)
    code, text = run(["certify", _fixture("plq_kernel.json")])
    block = _json_block(text)
    assert code == 0
    assert block["ssosc"]["holds"] is False and block["ssosc"]["worst_value"] == 0.0
    assert block["sms_certificate"]["affirmative"] is False
    assert growth_calls == [] and block["growth"] == []
    assert block["oracle"]["converged"] is True and block["oracle"]["formula"] == 0.0


def test_check_cq_report():
    code, text = run(["check-cq", _fixture("mscq_fail.json")])
    assert code == 0
    block = _json_block(text)
    assert block["mscq"]["holds_evidence"] is False
    assert block["basic_cq"] is False


def test_check_cq_runs_the_samples_asked_for():
    """The three radius levels share the samples, the first levels taking
    the remainder, so the report counts exactly --samples."""
    for samples in ("1", "2", "5"):
        code, text = run(["check-cq", _fixture("a1_parabola.json"), "--samples", samples])
        assert code == 0 and _json_block(text)["mscq"]["samples"] == int(samples)


def test_parse_rejects_non_finite_or_negative_inputs(tmp_path):
    base = json.loads(Path(_fixture("plq_abs.json")).read_text())
    cases = (("x", [float("inf")]), ("v", [float("nan")]), ("kappa", float("inf")),
             ("ell", float("nan")), ("kappa", -1.0), ("seed", -1), ("seed", "abc"),
             ("seed", None), ("seed", 2.7), ("schedule", "ab"), ("schedule", [1]),
             ("schedule", []), ("schedule", False), ("schedule", 0), ("schedule", ""),
             ("schedule", {"steps": 3.5}), ("schedule", {"samples_per_axis": True}),
             ("schedule", {"seed": -1}), ("schedule", {"steps": 1100}),
             ("schedule", {"radius_coeff": float("nan")}), ("schedule", {"t0": float("inf")}))
    for key, value in cases:
        data = dict(base, **{key: value})
        p = tmp_path / f"bad_{key}.json"
        p.write_text(json.dumps(data))
        code, text = run(["analyze", str(p)])
        assert code == 3 and text.startswith(f"error: {key}:")
    # a problem with no variables: certify used to divide by n = 0
    p = tmp_path / "no_variables.json"
    p.write_text(json.dumps({"phi": ["1"], "F": [["-1"]], "g": {"tag": "ind_nonpos", "dim": 1},
                             "x": []}))
    for command in ("analyze", "certify", "check-cq"):
        code, text = run([command, str(p)])
        assert code == 3 and text.startswith("error: x:"), (command, text)
    # F(x) overflows: the spectral value used to raise on a NaN, and numpy's
    # overflow warning reached stderr before the parse error
    p.write_text(json.dumps({"phi": [], "F": [["1e300 x1^2"], [], []], "g": {"tag": "max_eig", "n": 2},
                             "x": [1e10]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run(["analyze", str(p)])
    assert code == 3 and text.startswith("error: F(x):"), text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_infinite_kappa_hat_exits_2(tmp_path):
    # restoration into the orthant fails for F = (x1, x2, x1 x2, x1^2), so MSCQ
    # cannot supply a kappa when the file gives none
    data = {
        "phi": ["x1", "x2"],
        "F": [["x1"], ["x2"], ["x1 x2"], ["x1^2"]],
        "g": {"tag": "ind_nonpos", "dim": 4},
        "x": [0.0, 0.0],
    }
    p = tmp_path / "no_kappa.json"
    p.write_text(json.dumps(data))
    code, text = run(["analyze", str(p)])
    assert code == 2 and "kappa_hat is infinite" in text


def test_analyze_infinite_gap_renders_plus_inf():
    code, text = run(["analyze", _fixture("mscq_fail.json")])
    assert code == 1
    entries = _json_block(text)["directions"]
    assert entries and all(e["primal"] == "+inf" and e["gap"] == "+inf" for e in entries)


def test_analyze_counts_an_infinite_dual_against_a_finite_primal(monkeypatch):
    """Only a row whose dual and primal are both +inf lies outside the
    critical cone; a +inf dual against plq_abs's finite primal is an
    infinite gap, so analyze exits 1 and labels nothing."""
    from epidiff.extreal import PLUS_INF
    from epidiff.outer import PlqFunction

    monkeypatch.setattr(PlqFunction, "dual_value", lambda self, z, u, H, multys: (PLUS_INF, None))
    code, text = run(["analyze", _fixture("plq_abs.json")])
    entries = _json_block(text)["directions"]
    assert code == 1 and entries
    assert all(e["dual"] == "+inf" and e["primal"] != "+inf" and e["gap"] == "+inf" for e in entries)
    assert not any("reason" in e for e in entries)


# -- exit-code contract under generated input ---------------------------------------

_NUMBER = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, -0.25])
_MALFORMED = st.sampled_from(["NaN", "Infinity", "-Infinity", "abc", None, [], {}, -1, 0, 1e400, 2.5, True])
_SPECTRAL = ("ind_negsemidef", "max_eig", "sum_top_eig", "alpha_eig")
_TAGS = ("ind_nonpos", "ind_polyhedron", "abs", "plq", "twice_semidiff", "zero") + _SPECTRAL


def _monomials(n: int, max_size: int):
    """Non-constant monomials in x1..xn with small coefficients."""
    mono = st.tuples(_NUMBER, st.lists(st.integers(0, 2), min_size=n, max_size=n)).filter(
        lambda ce: any(ce[1])
    ).map(lambda ce: " ".join([f"{ce[0]:g}"] + [f"x{j + 1}^{p}" for j, p in enumerate(ce[1]) if p]))
    return st.lists(mono, max_size=max_size)


def _outer_payload(draw, tag: str, m: int) -> dict:
    """A well-formed payload of the tag on R^m, which is R^(k(k+1)/2) for the
    spectral tags."""
    k = {1: 1, 3: 2}[m] if tag in _SPECTRAL else None
    if tag in ("ind_nonpos", "zero"):
        return {"tag": tag, "dim": m}
    if tag == "ind_polyhedron":
        rows = draw(st.lists(st.lists(_NUMBER, min_size=m, max_size=m), min_size=1, max_size=3))
        return {"tag": tag, "dim": m, "G": rows, "h": [abs(draw(_NUMBER)) for _ in rows]}
    if tag == "abs":
        return {"tag": tag}
    if tag == "plq":
        return {"tag": tag, "dim": 1, "pieces": [
            {"G": [[1.0]], "h": [0.0], "A": [[0.0]], "a": [-1.0]},
            {"G": [[-1.0]], "h": [0.0], "A": [[draw(st.sampled_from([0.0, 1.0]))]], "a": [1.0]},
        ]}
    if tag == "twice_semidiff":
        return {"tag": tag, "dim": m, "base": draw(_monomials(m, 2)), "h": [f"x{j + 1}^2" for j in range(m)]}
    payload = {"tag": tag, "n": k}
    if tag in ("sum_top_eig", "alpha_eig"):
        payload["i"] = draw(st.integers(1, k))
    return payload


@st.composite
def _problem_files(draw):
    """A problem file over any tag, whose F(0) lies in dom g when x = 0, with
    at most one field then replaced by a non-finite or malformed value."""
    tag = draw(st.sampled_from(_TAGS))
    m = 1 if tag in ("abs", "plq") else draw(st.sampled_from([1, 3] if tag in _SPECTRAL else [1, 2]))
    n = draw(st.integers(1, 2))
    if tag == "ind_nonpos":
        base = draw(st.lists(st.sampled_from([0.0, -1.0]), min_size=m, max_size=m))
    elif tag in ("ind_negsemidef", "ind_polyhedron"):
        base = [0.0] * m if m != 3 else draw(st.sampled_from([[0.0, 0.0, -1.0], [0.0] * 3, [-1.0, 0.0, -1.0]]))
    else:
        base = draw(st.lists(_NUMBER, min_size=m, max_size=m))
    data = {
        "phi": draw(_monomials(n, 2)),
        "F": [[f"{c:g}"] + draw(_monomials(n, 2)) for c in base],
        "g": _outer_payload(draw, tag, m),
        "x": draw(st.sampled_from([[0.0] * n, [0.0] * n, [0.5] * n])),
        "kappa": draw(st.sampled_from([1.0, 1.0, 0.5, None])),
    }
    if draw(st.booleans()):
        data["v"] = draw(st.lists(_NUMBER, min_size=n, max_size=n))
    key = draw(st.sampled_from([None, None, None, "x", "v", "kappa", "F", "phi", "g", "seed", "schedule"]))
    if key == "g":
        field = draw(st.sampled_from([f for f in data["g"] if f != "tag"] or ["tag"]))
        data["g"][field] = draw(_MALFORMED)
    elif key in ("x", "v"):
        data[key] = [draw(_MALFORMED)] + [0.0] * (n - 1)
    elif key in ("F", "phi"):
        data[key] = draw(st.sampled_from([[["x9"]], [["2 y1"]], [["x1^-1"]], [[3]], "x1", [["1e400 x1"]]]))
    elif key is not None:
        data[key] = draw(_MALFORMED)
    w = draw(st.lists(_NUMBER, min_size=n, max_size=n))
    return data, ",".join(f"{c:g}" for c in w)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_problem_files())
def test_generated_problem_files_keep_exit_code_contract(tmp_path, case):
    """Every problem file, well formed or not, ends in exit 0-3 and a report
    or an error line; nothing is raised."""
    data, w = case
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(data))
    code, text = run(["analyze", str(p), f"--dir={w}"])
    assert code in (0, 1, 2, 3), text


# (valid, invalid) spellings of each argument; any invalid one must exit 3
_ARGV_VALUES = {
    "--seed": (["0", "7", "123456789012345678901234567890"], ["-1", "2.7", "abc", ""]),
    "--dir": (["1,0", "0,1", "-0.5,2"], ["inf,0", "nan,0", "1e400,0", "1", "a,b"]),
    "--samples": (["1", "3", "12"], ["-5", "0", "2.5", "abc"]),
    "--radius": (["0.1", "1e-3"], ["nan", "-1", "0", "inf", "abc"]),
}
_ENV_VALUES = {
    "EPIDIFF_SEED": (["3", " 5", ""], ["abc", "-1", "2.5"]),
    "EPIDIFF_BREAK_FORMULA": (["0", "", "2.5", " -1e3"], ["abc", "nan", "inf"]),
}
_FILE_SEEDS = ([3, 3.0, 0], [-1, "abc", None, 2.7, True, float("inf")])


def _pick(draw, valid_and_invalid):
    valid, invalid = valid_and_invalid
    bad = draw(st.booleans()) and draw(st.booleans())
    return draw(st.sampled_from(invalid if bad else valid)), bad


@st.composite
def _invocations(draw):
    """analyze or check-cq on a1_parabola with a draw of flags, of the
    environment variables and of a file seed, each valid or not."""
    command = draw(st.sampled_from(["analyze", "check-cq"]))
    flags = ["--seed"] + (["--dir"] if command == "analyze" else ["--samples", "--radius"])
    argv, invalid = [], False
    for flag in flags:
        if draw(st.booleans()):
            value, bad = _pick(draw, _ARGV_VALUES[flag])
            argv.append(f"{flag}={value}")
            invalid |= bad
    env, file_seed = {}, ...
    for name, values in _ENV_VALUES.items():
        if draw(st.booleans()):
            env[name], bad = _pick(draw, values)
            invalid |= bad
    if draw(st.booleans()):
        file_seed, bad = _pick(draw, _FILE_SEEDS)
        invalid |= bad
    return command, argv, env, file_seed, invalid


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_invocations())
def test_generated_arguments_keep_exit_code_contract(tmp_path, case):
    """Argv flags, EPIDIFF_SEED, EPIDIFF_BREAK_FORMULA and the file's seed:
    any invalid one ends in exit 3 and an error line, and nothing is raised."""
    command, argv, env, file_seed, invalid = case
    data = json.loads(Path(_fixture("a1_parabola.json")).read_text())
    if file_seed is not ...:
        data["seed"] = file_seed
    p = tmp_path / "args.json"
    p.write_text(json.dumps(data))
    saved = {name: os.environ.pop(name, None) for name in _ENV_VALUES}
    try:
        os.environ.update(env)
        code, text = run([command, str(p)] + argv)
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
    if invalid:
        assert code == 3 and text.startswith("error:"), (argv, env, file_seed, text)
    else:
        assert code == 0, (argv, env, file_seed, text)


def test_argument_errors_exit_3(monkeypatch):
    """The argument cases that used to end in a traceback, exit 0 or exit 1."""
    a1, cq = _fixture("a1_parabola.json"), ["check-cq", _fixture("a1_parabola.json")]
    for argv in (["analyze", a1, "--dir", "inf,0"], ["analyze", a1, "--dir", "nan,0"],
                 cq + ["--samples", "-5"], cq + ["--samples", "0"], cq + ["--radius", "nan"],
                 cq + ["--radius", "-1"], ["analyze", a1, "--seed", "-1"], ["analyze"],
                 ["bogus", a1], ["verify", a1, "--steps", "600"], ["verify", a1, "--t0", "inf"],
                 ["verify", a1, "--steps", "100000000"]):
        code, text = run(argv)
        assert code == 3 and text.startswith("error:"), argv
    for value in ("abc", "nan", "inf"):
        monkeypatch.setenv("EPIDIFF_BREAK_FORMULA", value)
        code, text = run(["verify", _fixture("plq_abs.json")])
        assert code == 3 and text.startswith("error:"), value
