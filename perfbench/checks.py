"""Answer checks: each report is judged against what the generator built into
its problem, with numpy references only (never the library's own formulas).

``judge`` returns ``(status, reasons)`` with status one of

- ``ok``: exit 0 and every check passed;
- ``error``: the call raised, exited outside 0-3, or printed no parseable JSON
  block;
- ``flagged``: a parseable report that misses the generator's answer and whose
  nonzero exit code says so;
- ``silent``: exit 0, yet the report contradicts the generator's answer.

``flagged`` and ``silent`` both count as wrong.  Primal and dual values are
read directly; the report's ``gap`` field is never trusted, because the
analyze report prints 0.0 for an infinite gap.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import spectral_reference

MARKER = "--- machine readable ---"
REL = 1e-6  # reports print 12 significant digits


def parse_block(text: str):
    if MARKER not in text:
        return None
    try:
        return json.loads(text.split(MARKER, 1)[1])
    except json.JSONDecodeError:
        return None


def _num(val) -> float:
    if val == "+inf":
        return math.inf
    if val == "-inf":
        return -math.inf
    return float(val)


def _close(got, want: float, rel: float = REL) -> bool:
    got = _num(got)
    return math.isfinite(got) and abs(got - want) <= rel * (1.0 + abs(want))


def _tau_reasons(block, expect, J) -> list[str]:
    kappa, ell, v = expect["kappa"], expect["ell"], expect["v"]
    want = kappa * ell * float(np.linalg.norm(J, 2)) + kappa * float(np.linalg.norm(v)) + ell
    if not _close(block.get("tau"), want, 1e-9):
        return [f"tau {block.get('tau')} != {want!r}"]
    return []


def _spectral_reasons(command, block, expect) -> list[str]:
    reasons = []
    rows = block.get("directions") or []
    if not rows:
        return ["no directions reported"]
    for k, row in enumerate(rows):
        ref = spectral_reference(expect, row["direction"])
        key = "dual" if command == "analyze" else "formula"
        if not _close(row.get(key), ref):
            reasons.append(f"dir {k}: {key} {row.get(key)} != reference {ref!r}")
        if command == "verify":
            if row.get("converged") is not True:
                reasons.append(f"dir {k}: oracle {row.get('oracle')} did not converge")
            para = row.get("parabolic_regularity") or {}
            if para.get("holds") is not True:
                reasons.append(f"dir {k}: parabolic regularity fails, lhs {para.get('lhs')} "
                               f"rhs {para.get('rhs')} {para.get('error', '')}".rstrip())
        if command == "analyze":
            primal = _num(row.get("primal"))
            if not (math.isfinite(primal) and abs(primal - ref) <= max(0.05, 0.05 * abs(ref))):
                reasons.append(f"dir {k}: primal {row.get('primal')} vs reference {ref!r}")
    if command == "analyze":
        reasons += _tau_reasons(block, expect, expect["M"])
    return reasons


def _polyhedral_reasons(block, expect) -> list[str]:
    G, J, v = expect["G"], expect["J"], expect["v"]
    ys = block.get("multipliers") or []
    if not ys:
        return ["no multipliers reported"]
    reasons = []
    for k, y in enumerate(ys):
        y = np.array([_num(t) for t in y])
        scale = 1.0 + float(np.linalg.norm(v)) + float(np.linalg.norm(J, 2) * np.linalg.norm(y))
        if float(np.linalg.norm(J.T @ y - v)) > 1e-7 * scale:
            reasons.append(f"multiplier {k}: J^T y != v")
        lam = np.linalg.solve(G.T, y)  # y = G^T lam must have lam >= 0
        if float(lam.min()) < -1e-7 * (1.0 + float(np.abs(lam).max())):
            reasons.append(f"multiplier {k}: outside the normal cone")
    return reasons + _tau_reasons(block, expect, J)


def judge(problem, command: str, code, text: str) -> tuple[str, list[str]]:
    if code is None or code not in (0, 1, 2, 3):
        return "error", [f"exit {code}: {text[-200:]}"]
    block = parse_block(text)
    if block is None:
        return "error", [f"exit {code} without a JSON block: {text[-200:]}"]
    reasons = [] if code == 0 else [f"exit {code}"]
    kind = problem.kind
    if kind in ("ind_negsemidef", "max_eig"):
        reasons += _spectral_reasons(command, block, problem.expect)
    elif command == "analyze":
        reasons += _polyhedral_reasons(block, problem.expect)
    elif command == "certify":
        if block.get("ssosc", {}).get("holds") is not True:
            reasons.append("ssosc.holds is not true")
        if block.get("sms_certificate", {}).get("affirmative") is not True:
            reasons.append("sms_certificate.affirmative is not true")
    elif command == "check-cq":
        if block.get("basic_cq") is not True:
            reasons.append(f"basic_cq is {block.get('basic_cq')!r}")
    if not reasons:
        return "ok", []
    return ("flagged" if code != 0 else "silent"), reasons
