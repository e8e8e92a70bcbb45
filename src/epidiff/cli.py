"""Command-line surface: problem ingestion, command dispatch, and report
emission.

Reports are printed as human-readable text followed by a machine-readable
JSON block (sorted keys, 12-significant-digit floats), so identical inputs and
seeds produce byte-identical output.  Exit codes: 0 all checks pass, 1
numerical disagreement, 2 precondition failure, 3 parse/validation error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import composite, optimality
from .core import GridSchedule
from .errors import (
    EpidiffError,
    MSCQFailed,
    NotStationary,
    ParseError,
    UnsupportedSpectralMultiplicity,
    ValidationError,
)
from .extreal import ExtReal
from .numkit import dedupe, unit_rows
from .numkit.polyhedra import DEDUP_TOL
from .oracle import GAP_TOL, EpiReport, check_parabolic_regularity, check_twice_epi_diff, gap_tol
from .optimality import sample_critical_directions
from .problem_io import ProblemSpec, parse_problem, parse_seed


def _jsonify(obj):
    if isinstance(obj, ExtReal):
        return "+inf" if obj.is_plus_inf else _jsonify(obj.value)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "+inf" if x > 0 else "-inf"
        return float(f"{x:.12g}") + 0.0  # +0.0 folds away negative zero
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


@dataclass
class Report:
    command: str
    payload: dict = field(default_factory=dict)
    exit_code: int = 0

    def render(self) -> str:
        lines = [f"epidiff {self.command}"]
        lines.extend(_render_block(self.payload, indent=2))
        lines.append("--- machine readable ---")
        lines.append(json.dumps(_jsonify(self.payload), sort_keys=True, indent=2))
        return "\n".join(lines)


def _render_block(data, indent=0) -> list[str]:
    pad = " " * indent
    lines = []
    for key, val in data.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_block(val, indent + 2))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(f"{pad}  -")
                lines.extend(_render_block(item, indent + 4))
        else:
            lines.append(f"{pad}{key}: {json.dumps(_jsonify(val))}")
    return lines


def _next_pow2(x: float) -> float:
    return float(2.0 ** math.ceil(math.log2(x))) if x > 1e-12 else 0.0


def _resolve_kappa(spec: ProblemSpec, seed: int):
    """User-supplied kappa wins; otherwise the empirical modulus rounded up to
    the next power of two, with its provenance recorded."""
    if spec.kappa is not None:
        return spec.kappa, "user-asserted", None
    mscq = composite.check_mscq(spec.problem, spec.x, n_samples=120, radius=0.25, seed=seed)
    if not math.isfinite(mscq.kappa_hat):
        raise MSCQFailed("MSCQ fails empirically: kappa_hat is infinite (restoration failed)")
    kappa = max(_next_pow2(mscq.kappa_hat), 1e-6)
    prov = "verified-empirically" if mscq.holds_evidence else "failed-empirically"
    return kappa, prov, mscq


def _direction_set(spec: ProblemSpec, ms, seed: int, off_cone: int = 0):
    """The default probing set: extreme rays plus the critical directions of
    eight seeded random unit seeds, with optional off-cone probes for the
    PlusInf branch: the first off_cone rows of one seeded block of
    60 * off_cone unit rows that the cone does not contain."""
    prob = spec.problem
    dirs = sample_critical_directions(prob, ms, 8, seed)
    probes = unit_rows(np.random.default_rng(seed + 1), 60 * off_cone, prob.n)
    off = list(itertools.islice((s for s in probes if not ms.cone.contains(s)), off_cone))
    return dedupe(dirs + off, DEDUP_TOL)


def _parse_dirs(raw_dirs, n) -> list[np.ndarray]:
    out = []
    for raw in raw_dirs or []:
        try:
            vec = np.array([float(t) for t in raw.split(",")], dtype=float)
        except ValueError as exc:
            raise ValidationError(f"--dir {raw!r}: expected comma-separated floats") from exc
        if vec.shape != (n,) or not np.all(np.isfinite(vec)):
            raise ValidationError(f"--dir {raw!r}: expected {n} finite components")
        out.append(vec)
    return out


# -- commands -----------------------------------------------------------------


def cmd_analyze(spec: ProblemSpec, dirs: list, seed: int) -> Report:
    prob, x, v = spec.problem, spec.x, spec.v
    kappa, prov, _ = _resolve_kappa(spec, seed)
    ms = composite.multipliers(prob, x, v, kappa=kappa, ell=spec.ell)
    if ms.is_empty:
        return Report(
            "analyze",
            {"error": "v is not a subgradient of g(F(.)) at x", "multipliers": []},
            exit_code=2,
        )
    if not dirs:
        dirs = _direction_set(spec, ms, seed)
    results = []
    worst_gap = 0.0
    for w in dirs:
        info = composite.second_subderivative_chain(prob, x, v, w, kappa=kappa, ell=spec.ell, multys=ms)
        entry = {
            "direction": w,
            "dual": info.dual_value,
            "primal": info.primal_value,
            "gap": info.gap,
            "argmax_y": info.argmax_y,
            "provenance": "closed-form",
        }
        # a +inf dual against a finite primal is a disagreement, not a label
        if info.dual_value.is_plus_inf and info.primal_value.is_plus_inf:
            entry["reason"] = "outside critical cone"
        else:
            worst_gap = max(worst_gap, info.gap)
        results.append(entry)
    tol = max((gap_tol(r["dual"]) for r in results), default=GAP_TOL)
    payload = {
        "multipliers": [m for m in ms.multipliers],
        "tau": ms.tau,
        "kappa": kappa,
        "mscq": prov,
        "critical_cone": ms.cone.description,
        "directions": results,
        "seed": seed,
        "tolerances": {"gap": tol},
    }
    return Report("analyze", payload, exit_code=0 if worst_gap <= tol else 1)


def cmd_verify(
    spec: ProblemSpec, dirs: list, seed: int, sched: GridSchedule, break_offset: float = 0.0
) -> Report:
    """break_offset (EPIDIFF_BREAK_FORMULA) is added to every finite closed
    form: a self-test hook that must turn a passing report into exit 1."""
    prob, x, v = spec.problem, spec.x, spec.v
    kappa, prov, _ = _resolve_kappa(spec, seed)
    ms = composite.multipliers(prob, x, v, kappa=kappa, ell=spec.ell)
    if ms.is_empty:
        return Report("verify", {"error": "v is not a subgradient of g(F(.)) at x"}, exit_code=2)
    if not dirs:
        dirs = _direction_set(spec, ms, seed, off_cone=2)

    def formula(w):
        val, _ = composite.chain_dual_value(prob, x, v, w, ms)
        if break_offset and val.is_finite:
            return ExtReal(val.value + break_offset)
        return val

    f = composite.sampled_objective(prob)
    reports = check_twice_epi_diff(f, x, v, dirs, sched, formula=formula)
    rows = []
    all_ok = True
    for rep in reports:
        ok = rep.converged
        row = _oracle_row(rep)
        if rep.formula_value.is_finite:
            try:
                holds, lhs, rhs = check_parabolic_regularity(f, x, v, rep.direction, sched, report=rep)
                row["parabolic_regularity"] = {"holds": holds, "lhs": lhs, "rhs": rhs}
                ok = ok and holds
            except EpidiffError as exc:
                row["parabolic_regularity"] = {"holds": False, "error": str(exc)}
                ok = False
        all_ok = all_ok and ok
        rows.append(row)
    payload = {
        "directions": rows,
        "mscq": prov,
        "kappa": kappa,
        "schedule": {
            "t0": sched.t0, "ratio": sched.ratio, "steps": sched.steps,
            "radius_coeff": sched.radius_coeff, "radius_exponent": sched.radius_exponent,
        },
        "seed": seed,
    }
    return Report("verify", payload, exit_code=0 if all_ok else 1)


def _oracle_row(rep: EpiReport) -> dict:
    return {
        "direction": rep.direction,
        "formula": rep.formula_value,
        "oracle": rep.oracle_value,
        "gap": rep.gap,
        "converged": rep.converged,
        "tolerance": gap_tol(rep.formula_value),
    }


def _condition_row(rep: optimality.SOCReport) -> dict:
    return {
        "holds": rep.holds,
        "worst_value": rep.worst_value,
        "worst_direction": rep.worst_direction,
        "directions_tested": rep.directions_tested,
        "method": rep.method,
    }


def cmd_certify(spec: ProblemSpec, seed: int, sched: GridSchedule, break_offset: float = 0.0) -> Report:
    """Growth runs in shrinking balls judge a holding SSOSC with a finite worst
    value; the oracle judges a failing one at its worst direction (break_offset
    shifts the value it judges, as in cmd_verify).  A hold on {0} is vacuous."""
    prob, x = spec.problem, spec.x
    kappa, prov, _ = _resolve_kappa(spec, seed)
    try:
        base = optimality.stationary_data(prob, x, kappa)
        ssosc = optimality.check_ssosc(prob, base, seed=seed)
        sonc = optimality.check_sonc(ssosc)
    except NotStationary as exc:
        return Report("certify", {"error": f"not stationary: {exc}"}, exit_code=2)
    growth_rows = []
    if ssosc.holds and ssosc.worst_value.is_finite:
        ell = 0.5 * ssosc.worst_value.value
        for eps in (0.1, 0.05, 0.01):
            rep = optimality.verify_growth(prob, x, ell=ell, epsilon=eps, n_samples=2000, seed=seed)
            growth_rows.append({"ell": ell, "epsilon": eps, "samples": rep.samples, "violations": rep.violations})
    consistent = not growth_rows or growth_rows[-1]["violations"] == 0
    cert = optimality.sms_certificate(ssosc, mscq_provenance=prov)
    payload = {
        "sonc": _condition_row(sonc),
        "ssosc": _condition_row(ssosc),
        "growth": growth_rows,
        "sms_certificate": {
            "affirmative": cert.affirmative,
            "note": cert.equivalence_note,
            "assumptions": cert.assumptions,
        },
        "mscq": prov,
        "kappa": kappa,
        "seed": seed,
        "tolerances": {"sonc": optimality.SONC_TOL, "ssosc": optimality.SSOSC_TOL,
                       "growth_slack": optimality.GROWTH_SLACK},
    }
    if not ssosc.holds:
        judged = ExtReal(ssosc.worst_value.value + break_offset)
        f = composite.sampled_objective(prob, include_phi=True)
        (rep,) = check_twice_epi_diff(f, x, np.zeros(prob.n), [ssosc.worst_direction], sched,
                                      formula=lambda w: judged)
        payload["oracle"] = _oracle_row(rep)
        consistent = rep.converged
    return Report("certify", payload, exit_code=0 if consistent else 1)


def cmd_check_cq(spec: ProblemSpec, n_samples: int, radius: float, seed: int) -> Report:
    prob, x = spec.problem, spec.x
    mscq = composite.check_mscq(prob, x, n_samples=n_samples, radius=radius, seed=seed)
    try:
        basic = composite.check_basic_cq(prob, x)
    except UnsupportedSpectralMultiplicity as exc:
        basic = f"unsupported: {exc}"
    payload = {
        "mscq": {
            "holds_evidence": mscq.holds_evidence,
            "kappa_hat": mscq.kappa_hat,
            "worst_point": mscq.worst_point,
            "samples": mscq.samples,
            "ratios_by_radius": mscq.ratios_by_radius,
        },
        "basic_cq": basic,
        "seed": seed,
    }
    return Report("check-cq", payload, exit_code=0)


# -- dispatch ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors are parse errors: exit 3 with an error line."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every run."""
    parser = _Parser(prog="epidiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", help="multipliers, tau, and the chain-rule values")
    pa.add_argument("file")
    pa.add_argument("--dir", action="append", help="direction as comma-separated floats")
    pa.add_argument("--seed", type=int)
    pv = sub.add_parser("verify", help="closed forms against the difference-quotient oracle")
    pv.add_argument("file")
    pv.add_argument("--dir", action="append")
    pv.add_argument("--t0", type=float)
    pv.add_argument("--ratio", type=float)
    pv.add_argument("--steps", type=int)
    pv.add_argument("--seed", type=int)
    pc = sub.add_parser("certify", help="second-order optimality certificates")
    pc.add_argument("file")
    pc.add_argument("--seed", type=int)
    pq = sub.add_parser("check-cq", help="constraint-qualification evidence")
    pq.add_argument("file")
    pq.add_argument("--samples", type=int, default=240)
    pq.add_argument("--radius", type=float, default=0.25)
    pq.add_argument("--seed", type=int)
    return parser


def _parse(argv) -> tuple:
    """(args, spec, seed, dirs, break_offset): argv, file and environment,
    all checked first."""
    args = build_parser().parse_args(argv)
    spec = parse_problem(args.file)
    seed = spec.seed if args.seed is None else parse_seed(args.seed, "--seed")
    env_seed = os.environ.get("EPIDIFF_SEED")
    if env_seed:
        seed = parse_seed(env_seed, "EPIDIFF_SEED")
    env_break = os.environ.get("EPIDIFF_BREAK_FORMULA")
    try:
        break_offset = float(env_break) if env_break else 0.0
    except ValueError:
        break_offset = math.nan
    if not math.isfinite(break_offset):
        raise ValidationError("EPIDIFF_BREAK_FORMULA: must be a finite number")
    if args.command == "check-cq":
        if args.samples < 1:
            raise ValidationError("--samples: must be at least 1")
        if not (math.isfinite(args.radius) and args.radius > 0):
            raise ValidationError("--radius: must be finite and positive")
    return args, spec, seed, _parse_dirs(getattr(args, "dir", None), spec.problem.n), break_offset


def run(argv=None) -> tuple[int, str]:
    try:
        args, spec, seed, dirs, break_offset = _parse(argv)
    except (ParseError, ValidationError) as exc:
        return 3, f"error: {exc}"
    try:
        given = {name: getattr(args, name) for name in ("t0", "ratio", "steps")
                 if getattr(args, name, None) is not None}
        sched = replace(spec.schedule, seed=seed, **given)
        if args.command == "analyze":
            report = cmd_analyze(spec, dirs, seed)
        elif args.command == "verify":
            report = cmd_verify(spec, dirs, seed, sched, break_offset)
        elif args.command == "certify":
            report = cmd_certify(spec, seed, sched, break_offset)
        else:
            report = cmd_check_cq(spec, args.samples, args.radius, seed)
    except (ValidationError, ParseError) as exc:
        return 3, f"error: {exc}"
    except EpidiffError as exc:
        return 2, f"error: {exc}"
    return report.exit_code, report.render()


def main(argv=None) -> int:
    code, text = run(argv)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
