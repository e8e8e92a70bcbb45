"""Problem-file ingestion.

Files are JSON with monomials written as strings ("3 x1^2 x2"): optional
coefficient first, then variable^power factors.  The outer function g is a
tagged payload; matrix-valued tags live on the isometric vectorization of
symmetric matrices, so for them F must map into R^(n(n+1)/2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, GridSchedule, PolyMap, gradient, poly_eval
from .errors import ParseError, ValidationError
from .numkit import Polyhedron, svec_dim
from .outer import (
    NegSemidefIndicator,
    OuterFunction,
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
)

DEFAULT_SEED = GridSchedule.seed


@dataclass
class ProblemSpec:
    """A parsed problem: the composite data plus base point and options."""

    problem: CompositeProblem
    x: np.ndarray
    v: np.ndarray
    kappa: float | None
    ell: float | None
    schedule: GridSchedule
    seed: int


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _finite_vec(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except Exception as exc:
        raise ValidationError(f"{name}: expected a numeric vector") from exc
    _require(arr.ndim == 1, f"{name}: expected a flat vector")
    _require(bool(np.all(np.isfinite(arr))), f"{name}: entries must be finite")
    return arr


def _optional_scalar(data: dict, name: str) -> float | None:
    """A finite nonnegative constant such as kappa or ell, or None if absent."""
    if data.get(name) is None:
        return None
    try:
        val = float(data[name])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: expected a number") from exc
    _require(math.isfinite(val) and val >= 0.0, f"{name}: expected a finite nonnegative number")
    return val


def _mat(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except Exception as exc:
        raise ValidationError(f"{name}: expected a numeric matrix") from exc
    _require(arr.ndim == 2 and bool(np.all(np.isfinite(arr))), f"{name}: expected a finite matrix")
    return arr


def _build_polyhedron(payload: dict, dim: int, name: str) -> Polyhedron:
    G = h = E = d = None
    if payload.get("G"):
        _require(payload.get("h") is not None, f"{name}: G without h")
        G = _mat(payload["G"], f"{name}.G")
        h = _finite_vec(payload["h"], f"{name}.h")
    if payload.get("E"):
        _require(payload.get("d") is not None, f"{name}: E without d")
        E = _mat(payload["E"], f"{name}.E")
        d = _finite_vec(payload["d"], f"{name}.d")
    try:
        return Polyhedron.make(dim, G, h, E, d)
    except Exception as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _integer(val, name: str, least: int) -> int:
    """An int or a float without fraction, never a bool, of at least ``least``."""
    integral = isinstance(val, int) or (isinstance(val, float) and val.is_integer())
    _require(integral and not isinstance(val, bool), f"{name}: must be an integer")
    _require(val >= least, f"{name}: must be at least {least}")
    return int(val)


def _count(payload: dict, tag: str, key: str) -> int:
    """A positive integer field (dim, n or i) that the tag requires."""
    _require(key in payload, f"g: {tag} requires {key}")
    return _integer(payload[key], f"g: {tag}: {key}", 1)


def parse_seed(val, name: str) -> int:
    """A random seed: a nonnegative integer.  Text (argv, environment) must
    spell a decimal integer; numbers follow the rule of the count fields."""
    if isinstance(val, str):
        try:
            val = int(val)
        except ValueError as exc:
            raise ValidationError(f"{name}: must be an integer") from exc
    return _integer(val, name, 0)


def build_outer(payload: dict, z: np.ndarray) -> OuterFunction:
    """The outer function of the payload; alpha_eig is anchored at z = F(x)."""
    _require(isinstance(payload, dict) and "tag" in payload, "g: missing tag")
    tag = payload["tag"]
    if tag == "ind_nonpos":
        return nonpositive_orthant(_count(payload, tag, "dim"))
    if tag == "ind_polyhedron":
        dim = _count(payload, tag, "dim")
        return PolyhedralIndicator(_build_polyhedron(payload, dim, "g"))
    if tag == "abs":
        return absolute_value()
    if tag == "plq":
        dim, pcs = _count(payload, tag, "dim"), payload.get("pieces")
        _require(isinstance(pcs, list) and all(isinstance(pc, dict) for pc in pcs), "g: plq requires pieces")
        pieces = []
        for k, pc in enumerate(pcs):
            dom = _build_polyhedron(pc, dim, f"g.pieces[{k}]")
            A = _mat(pc["A"], f"g.pieces[{k}].A") if pc.get("A") else np.zeros((dim, dim))
            a = _finite_vec(pc["a"], f"g.pieces[{k}].a") if pc.get("a") is not None else np.zeros(dim)
            _require(A.shape == (dim, dim), f"g.pieces[{k}].A: wrong shape")
            _require(a.shape == (dim,), f"g.pieces[{k}].a: wrong shape")
            alpha = _finite_vec([pc.get("alpha", 0.0)], f"g.pieces[{k}].alpha")[0]
            pieces.append(PlqPiece(dom, A, a, alpha))
        g = PlqFunction(pieces)
        if not g.spot_check_agreement(n_samples=40):
            raise ValidationError("g: PLQ piece values disagree on shared faces")
        return g
    if tag == "ind_negsemidef":
        return NegSemidefIndicator(_count(payload, tag, "n"))
    if tag == "max_eig":
        return max_eig(_count(payload, tag, "n"))
    if tag in ("sum_top_eig", "alpha_eig"):
        n, i = _count(payload, tag, "n"), _count(payload, tag, "i")
        _require(i <= n, f"g: {tag}: i must not exceed n")
        if tag == "sum_top_eig":
            return sum_top_eig(n, i)
        _require(z.size == svec_dim(n), f"F maps into R^{z.size} but g lives on R^{svec_dim(n)}")
        return alpha_eig(n, i, z)
    if tag == "twice_semidiff":
        dim = _count(payload, tag, "dim")
        center = _finite_vec(payload["center"], "g.center") if payload.get("center") else None
        try:
            base = PolyMap.from_strings([payload.get("base") or []], dim)
            h = PolyMap.from_strings([payload.get("h") or []], dim)
            return SmoothQuadratic(base, h, center)
        except ValidationError:
            raise
        except Exception as exc:
            raise ValidationError(f"g: {exc}") from exc
    if tag == "zero":
        return zero_function(_count(payload, tag, "dim"))
    raise ValidationError(f"g: unknown tag {tag!r}")


def parse_problem_dict(data: dict) -> ProblemSpec:
    _require(isinstance(data, dict), "problem file must be a JSON object")
    for key in ("phi", "F", "g", "x"):
        _require(key in data, f"missing field {key!r}")
    x = _finite_vec(data["x"], "x")
    _require(x.size > 0, "x: expected at least one variable")
    n = x.shape[0]
    try:
        phi = PolyMap.from_strings([data["phi"]], n)
        F = PolyMap.from_strings(data["F"], n)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"bad polynomial data: {exc}") from exc
    z = _finite_vec(poly_eval(F, x), "F(x)")
    g = build_outer(data["g"], z)
    try:
        problem = CompositeProblem(phi, F, g)
    except Exception as exc:
        raise ValidationError(str(exc)) from exc
    if data.get("v") is not None:
        v = _finite_vec(data["v"], "v")
        _require(v.shape == (n,), "v: wrong length")
    else:
        v = -gradient(phi, x)
    kappa = _optional_scalar(data, "kappa")
    ell = _optional_scalar(data, "ell")
    seed = parse_seed(data.get("seed", DEFAULT_SEED), "seed")
    sched_data = data.get("schedule")
    sched_data = {} if sched_data is None else sched_data
    _require(isinstance(sched_data, dict), "schedule: expected an object")
    sched_data = dict(sched_data, seed=parse_seed(sched_data.get("seed", seed), "schedule: seed"))
    for key in [k for k in ("steps", "samples_per_axis") if k in sched_data]:
        sched_data[key] = _integer(sched_data[key], f"schedule: {key}", 0)
    try:
        schedule = GridSchedule(**sched_data)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"schedule: {exc}") from exc
    if not g.value(z).is_finite:
        raise ValidationError("base point x is infeasible: F(x) lies outside dom g")
    return ProblemSpec(
        problem=problem,
        x=x,
        v=v,
        kappa=kappa,
        ell=ell,
        schedule=schedule,
        seed=seed,
    )


def parse_problem(path: str) -> ProblemSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_problem_dict(data)
