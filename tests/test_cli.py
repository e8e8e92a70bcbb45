import json
import os
from pathlib import Path

import numpy as np
import pytest

from epidiff.cli import run
from epidiff.problem_io import parse_problem, parse_problem_dict, problem_to_dict

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


def test_roundtrip_identity():
    for name in (
        "a1_parabola.json",
        "plq_abs.json",
        "psd_cone.json",
        "parabola_min.json",
        "min_quartic.json",
        "mscq_fail.json",
    ):
        spec1 = parse_problem(_fixture(name))
        d1 = problem_to_dict(spec1)
        spec2 = parse_problem_dict(d1)
        d2 = problem_to_dict(spec2)
        assert d1 == d2, name


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


def test_check_cq_report():
    code, text = run(["check-cq", _fixture("mscq_fail.json")])
    assert code == 0
    block = _json_block(text)
    assert block["mscq"]["holds_evidence"] is False
    assert block["basic_cq"] is False


def test_parse_rejects_non_finite_or_negative_inputs(tmp_path):
    base = json.loads(Path(_fixture("plq_abs.json")).read_text())
    cases = (("x", [float("inf")]), ("v", [float("nan")]), ("kappa", float("inf")),
             ("ell", float("nan")), ("kappa", -1.0))
    for key, value in cases:
        data = dict(base, **{key: value})
        p = tmp_path / f"bad_{key}.json"
        p.write_text(json.dumps(data))
        code, text = run(["analyze", str(p)])
        assert code == 3 and text.startswith(f"error: {key}:")


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
