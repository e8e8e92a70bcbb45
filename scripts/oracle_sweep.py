#!/usr/bin/env python3
"""Sweep the oracle schedule on a chosen benchmark and print how the
second-subderivative estimate converges level by level.

Usage: python scripts/oracle_sweep.py [--benchmark a1|irregular|psd] [--steps K]

Exits 1 when the stabilized estimate is +inf or lies farther than
``oracle.gap_tol(target)`` from the benchmark's target.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from epidiff.composite import sampled_objective
from epidiff.core import STABLE_LEVELS, GridSchedule
from epidiff.extreal import ExtReal
from epidiff.numkit import svec
from epidiff.oracle import check_twice_epi_diff, gap_tol
from epidiff.outer import NegSemidefIndicator


def _benchmark(name):
    if name == "a1":
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
        from _instances import a1_problem

        prob = a1_problem()
        return sampled_objective(prob), [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], -2.0, {}
    if name == "irregular":
        from epidiff.oracle import SampledFunction

        f = SampledFunction(
            lambda X: np.abs(X[:, 1] - np.abs(X[:, 0]) ** (4 / 3)) - X[:, 0] ** 2, 2, "irregular",
        )
        opts = {"radius_coeff": 1.5, "radius_exponent": 1.0 / 3.0, "steps": 21}
        return f, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], -2.0, opts
    if name == "psd":
        g = NegSemidefIndicator(2)
        from epidiff.oracle import SampledFunction

        f = SampledFunction(
            g.value_batch, g.ambient_dim, "psd", restore_feasible=g.domain_project,
        )
        A = np.diag([0.0, -1.0])
        V = np.diag([1.0, 0.0])
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        return f, svec(A), svec(V), svec(W), 2.0, {}
    raise SystemExit(f"unknown benchmark {name!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="a1", choices=["a1", "irregular", "psd"])
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args()
    f, x, v, w, target, opts = _benchmark(args.benchmark)
    if args.steps is not None:
        opts["steps"] = args.steps
    sched = GridSchedule(**opts)
    # a schedule holds only its STABLE_LEVELS finest levels, so the ladder
    # t0 * ratio**k is searched as consecutive schedules of that many levels,
    # the last one ending at the finest level, which the estimate folds
    ts, levels = [sched.t0 * sched.ratio ** k for k in range(sched.steps)], []
    for k in range(0, sched.steps, STABLE_LEVELS):
        k = min(k, sched.steps - STABLE_LEVELS)
        (rep,) = check_twice_epi_diff(f, x, v, [w], replace(sched, t0=ts[k], steps=STABLE_LEVELS),
                                      formula=lambda _: ExtReal(target))
        levels += rep.achieving_sequence[len(levels) - k:]
    print(f"benchmark {args.benchmark}: target {target}")
    print(f"{'t':>12s} {'level min':>14s}")
    for t, _, m in levels:
        print(f"{t:12.3e} {m:14.6f}")
    est = rep.oracle_value
    print(f"stabilized estimate: {est}  (target {target})")
    return 0 if est.is_finite and abs(est.value - target) <= gap_tol(ExtReal(target)) else 1


if __name__ == "__main__":
    sys.exit(main())
