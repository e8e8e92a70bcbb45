"""Outside-in layer tracing for the traced benchmark run.

The library is not edited.  While a traced call runs, the public functions of
each layer are replaced by timing wrappers: module functions are rebound at
every import site (``composite``, ``outer.*`` and ``optimality`` bind names
with ``from .x import y``), and catalog methods are replaced on every class
that defines them.  ``Tracer.installed()`` restores the originals on exit, so
untraced calls run the unmodified code.

Spans carry a name, start, end, parent span and invocation id.  They are kept
in memory in flat arrays and written once, when the run ends.  Self time is a
span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Module-level functions: span name -> (module, attribute).
FUNCTIONS = {
    "core.poly_eval": ("epidiff.core", "poly_eval"),
    "core.poly_eval_batch": ("epidiff.core", "poly_eval_batch"),
    "core.jacobian": ("epidiff.core", "jacobian"),
    "core.second_form": ("epidiff.core", "second_form"),
    "oracle.epi_check": ("epidiff.oracle", "check_twice_epi_diff"),
    "oracle.level_search": ("epidiff.oracle", "_level_minimum"),
    "oracle.pattern_refine": ("epidiff.oracle", "_pattern_refine"),
    "oracle.parabolic_estimate": ("epidiff.oracle", "estimate_parabolic_subderivative"),
    "oracle.parabolic_regularity": ("epidiff.oracle", "check_parabolic_regularity"),
    "composite.multipliers": ("epidiff.composite", "multipliers"),
    "composite.restore": ("epidiff.composite", "_restore_feasible_point"),
    "composite.check_mscq": ("epidiff.composite", "check_mscq"),
    "composite.critical_cone": ("epidiff.composite", "critical_cone"),
    "composite.chain_dual": ("epidiff.composite", "chain_dual_value"),
    "composite.primal": ("epidiff.composite", "_primal_value"),
    "numkit.polyhedra.vertices": ("epidiff.numkit.polyhedra", "vertices"),
    "numkit.polyhedra.cone_generators": ("epidiff.numkit.polyhedra", "cone_generators"),
    "numkit.polyhedra.lp_max": ("epidiff.numkit.polyhedra", "lp_max"),
    "numkit.polyhedra.project": ("epidiff.numkit.polyhedra", "project"),
    "numkit.sym.sym_eig": ("epidiff.numkit.sym", "sym_eig"),
    "optimality.ssosc": ("epidiff.optimality", "check_ssosc"),
    "optimality.sonc": ("epidiff.optimality", "check_sonc"),
    "optimality.sample_directions": ("epidiff.optimality", "sample_critical_directions"),
    "optimality.growth": ("epidiff.optimality", "verify_growth"),
    "problem_io.parse": ("epidiff.problem_io", "parse_problem"),
}

# Catalog methods, replaced on every OuterFunction subclass that defines them.
OUTER_METHODS = {
    "value_batch": "outer.value_batch",
    "value": "outer.value",
    "domain_project": "outer.domain_project",
    "domain_distance": "outer.domain_distance",
    "subdifferential": "outer.closed_forms",
    "subderivative": "outer.closed_forms",
    "second_subderivative": "outer.closed_forms",
    "parabolic_subderivative": "outer.closed_forms",
    "critical_cone": "outer.closed_forms",
    "second_order_tangent_contains": "outer.closed_forms",
}

# Other methods: span name -> (module, class, method).
METHODS = {
    "oracle.f_value": ("epidiff.oracle", "SampledFunction", "value"),
    "oracle.f_eval_batch": ("epidiff.oracle", "SampledFunction", "eval_batch"),
    "cli.render": ("epidiff.cli", "Report", "render"),
}

# Metrics a traced run prints: (layer span, statistic).
PER_LAYER = [
    ("core.poly_eval", "calls"), ("core.poly_eval", "self_s"),
    ("core.jacobian", "calls"), ("core.jacobian", "self_s"),
    ("core.second_form", "calls"), ("core.second_form", "self_s"),
    ("core.poly_eval_batch", "calls"), ("core.poly_eval_batch", "rows"),
    ("core.poly_eval_batch", "self_s"),
    ("outer.value_batch", "calls"), ("outer.value_batch", "rows"), ("outer.value_batch", "self_s"),
    ("outer.value", "calls"), ("outer.value", "self_s"),
    ("outer.domain_project", "calls"), ("outer.domain_project", "self_s"),
    ("outer.domain_distance", "calls"), ("outer.domain_distance", "self_s"),
    ("outer.closed_forms", "calls"), ("outer.closed_forms", "self_s"),
    ("oracle.epi_check", "calls"), ("oracle.epi_check", "total_s"),
    ("oracle.level_search", "calls"), ("oracle.level_search", "self_s"),
    ("oracle.pattern_refine", "calls"), ("oracle.pattern_refine", "evals"),
    ("oracle.pattern_refine", "self_s"),
    ("oracle.parabolic_estimate", "calls"), ("oracle.parabolic_estimate", "self_s"),
    ("oracle.parabolic_regularity", "calls"), ("oracle.parabolic_regularity", "total_s"),
    ("oracle.f_value", "calls"),
    ("oracle.f_eval_batch", "calls"), ("oracle.f_eval_batch", "rows"),
    ("composite.multipliers", "calls"), ("composite.multipliers", "total_s"),
    ("composite.restore", "calls"), ("composite.restore", "self_s"),
    ("composite.restore", "total_s"), ("composite.restore", "success_share"),
    ("composite.check_mscq", "calls"), ("composite.check_mscq", "total_s"),
    ("composite.critical_cone", "calls"), ("composite.critical_cone", "total_s"),
    ("composite.chain_dual", "calls"), ("composite.chain_dual", "total_s"),
    ("composite.primal", "calls"), ("composite.primal", "total_s"),
    ("composite.primal", "fallback_share"),
    ("numkit.polyhedra.vertices", "calls"), ("numkit.polyhedra.vertices", "self_s"),
    ("numkit.polyhedra.vertices", "subsets"),
    ("numkit.polyhedra.cone_generators", "calls"), ("numkit.polyhedra.cone_generators", "self_s"),
    ("numkit.polyhedra.lp_max", "calls"), ("numkit.polyhedra.lp_max", "total_s"),
    ("numkit.polyhedra.project", "calls"), ("numkit.polyhedra.project", "self_s"),
    ("numkit.sym.sym_eig", "calls"), ("numkit.sym.sym_eig", "self_s"),
    ("optimality.ssosc", "calls"), ("optimality.ssosc", "total_s"),
    ("optimality.ssosc", "directions"),
    ("optimality.sonc", "calls"), ("optimality.sonc", "total_s"),
    ("optimality.sample_directions", "calls"), ("optimality.sample_directions", "self_s"),
    ("optimality.growth", "calls"), ("optimality.growth", "total_s"),
    ("optimality.growth", "kept_share"),
    ("problem_io.parse", "calls"), ("problem_io.parse", "self_s"),
    ("cli.render", "self_s"),
]
# Vertex-enumeration self time split by the problem's outer dimension m.
VERTEX_SWEEP = tuple(range(3, 9))

UNITS = {"calls": "count", "rows": "count", "evals": "count", "subsets": "count",
         "directions": "count", "self_s": "s", "total_s": "s"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    out = [(f"{layer}.{stat}", UNITS.get(stat, "ratio")) for layer, stat in PER_LAYER]
    out += [(f"numkit.polyhedra.vertices.self_s.m{m}", "s") for m in VERTEX_SWEEP]
    out += [("oracle.batched_eval_share", "ratio"), ("trace.spans", "count"),
            ("trace.overhead_share", "ratio")]
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")
        self.counts: dict[str, float] = {}
        self.invocations: list[dict] = []
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._inv = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._originals: dict[str, object] = {}
        self._growth: dict | None = None

    # -- recording ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def open(self, nid: int) -> int:
        idx = len(self.start)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self._inv)
        self.outermost.append(1 if depth == 0 else 0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1

    def _wrap(self, name: str, fn, after=None, before=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        return wrapper

    # -- per-layer hooks -----------------------------------------------------------

    def _hooks(self):
        def rows(key):
            def after(idx, args, kwargs, out):
                batch = args[1] if len(args) > 1 else next(iter(kwargs.values()))
                self.count(key, np.atleast_2d(batch).shape[0])
            return after

        def vertices_after(idx, args, kwargs, out):
            P = args[0]
            rank = int(np.linalg.matrix_rank(P.E)) if P.E.size else 0
            need = P.dim - rank
            self.count("numkit.polyhedra.vertices.subsets",
                       math.comb(P.n_ineq, need) if 0 <= need <= P.n_ineq else 0)

        def refine_before(args, kwargs):
            q = args[0]

            def counted(p):
                self.count("oracle.pattern_refine.evals")
                return q(p)

            return (counted,) + tuple(args[1:]), kwargs

        def restore_after(idx, args, kwargs, out):
            self.count("composite.restore.success", out is not None)
            g = self._growth
            if g is not None and self.parent[idx] == g["span"] and out is not None:
                g["kept_restores"] += float(np.linalg.norm(out - g["x"])) <= g["epsilon"]

        def primal_after(idx, args, kwargs, out):
            self.count("composite.primal.fallback", out[1] is False)

        def ssosc_after(idx, args, kwargs, out):
            self.count("optimality.ssosc.directions", out.directions_tested)

        def growth_before(args, kwargs):
            bound = inspect.signature(self._originals["optimality.growth"]).bind(*args, **kwargs)
            self._growth = {"span": len(self.start), "x": np.asarray(bound.arguments["x"], dtype=float),
                            "epsilon": bound.arguments["epsilon"], "kept_restores": 0}
            return args, kwargs

        def growth_after(idx, args, kwargs, out):
            # every sample draw values g once; a restoration kept inside the
            # epsilon ball values it once more; the first call is the base point
            value_id = self._ids.get("outer.value")
            values = sum(1 for j in range(idx + 1, len(self.start))
                         if self.parent[j] == idx and self.name_id[j] == value_id)
            self.count("optimality.growth.kept", out.samples)
            self.count("optimality.growth.attempts", values - 1 - self._growth["kept_restores"])
            self._growth = None

        return {
            "core.poly_eval_batch": (rows("core.poly_eval_batch.rows"), None),
            "oracle.pattern_refine": (None, refine_before),
            "composite.restore": (restore_after, None),
            "composite.primal": (primal_after, None),
            "numkit.polyhedra.vertices": (vertices_after, None),
            "optimality.ssosc": (ssosc_after, None),
            "optimality.growth": (growth_after, growth_before),
            "outer.value_batch": (rows("outer.value_batch.rows"), None),
            "oracle.f_eval_batch": (rows("oracle.f_eval_batch.rows"), None),
        }

    # -- installation ------------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper, original) for every rebinding site."""
        import epidiff.outer.base as base

        hooks = self._hooks()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "epidiff" or name.startswith("epidiff."))]
        out = []
        for span, (modname, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[modname], attr)
            self._originals[span] = fn
            after, before = hooks.get(span, (None, None))
            wrapper = self._wrap(span, fn, after, before)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        out.append((mod, key, wrapper, fn))
        classes, todo = [], [base.OuterFunction]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for meth, span in OUTER_METHODS.items():
                if meth in vars(cls):
                    fn = vars(cls)[meth]
                    after, before = hooks.get(span, (None, None))
                    out.append((cls, meth, self._wrap(span, fn, after, before), fn))
        for span, (modname, clsname, meth) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            fn = vars(cls)[meth]
            after, before = hooks.get(span, (None, None))
            out.append((cls, meth, self._wrap(span, fn, after, before), fn))
        return out

    @contextmanager
    def installed(self, invocation: dict):
        """Trace one CLI invocation; the originals are back on exit."""
        if not self._patches:
            self._patches = self._targets()
        self._inv = len(self.invocations)
        self.invocations.append(invocation)
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)
        root = self.open(self._id(f"cli.{invocation['command']}"))
        try:
            yield
        finally:
            self.close(root)
            for owner, attr, _, fn in self._patches:
                setattr(owner, attr, fn)
            self._stack.clear()
            self._depth.clear()

    # -- summaries -----------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8),
        }

    def metrics(self, overhead_share: float) -> dict[str, float]:
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        outer = a["outermost"] == 1
        total_s = np.bincount(a["name_id"][outer], weights=dur[outer], minlength=n_names)

        def stat(layer: str, kind: str) -> float:
            nid = self._ids.get(layer)
            if kind == "calls":
                return float(calls[nid]) if nid is not None else 0.0
            if kind == "self_s":
                return float(self_s[nid]) if nid is not None else 0.0
            if kind == "total_s":
                return float(total_s[nid]) if nid is not None else 0.0
            return self.counts.get(f"{layer}.{kind}", 0.0)

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for layer, kind in PER_LAYER:
            if kind == "success_share":
                val = share(self.counts.get("composite.restore.success", 0.0), stat(layer, "calls"))
            elif kind == "fallback_share":
                val = share(self.counts.get("composite.primal.fallback", 0.0), stat(layer, "calls"))
            elif kind == "kept_share":
                val = share(self.counts.get("optimality.growth.kept", 0.0),
                            self.counts.get("optimality.growth.attempts", 0.0))
            else:
                val = stat(layer, kind)
            out[f"{layer}.{kind}"] = val
        vid = self._ids.get("numkit.polyhedra.vertices")
        inv_m = np.array([inv["m"] for inv in self.invocations] or [0])
        for m in VERTEX_SWEEP:
            if vid is None:
                out[f"numkit.polyhedra.vertices.self_s.m{m}"] = 0.0
                continue
            mask = (a["name_id"] == vid) & (inv_m[a["invocation"]] == m)
            out[f"numkit.polyhedra.vertices.self_s.m{m}"] = float(self_time[mask].sum())
        batched = self.counts.get("oracle.f_eval_batch.rows", 0.0)
        out["oracle.batched_eval_share"] = share(batched, batched + stat("oracle.f_value", "calls"))
        out["trace.spans"] = float(len(dur))
        out["trace.overhead_share"] = overhead_share
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            invocations=np.array([f"{i['pid']} {i['command']}" for i in self.invocations]),
            **self.arrays(),
        )
