#!/usr/bin/env python3
"""Steadiness sweep: run the benchmark once per seed on each workload and
report, per end-to-end metric, the median and the interquartile spread as a
share of the median (``statistics.quantiles(values, n=4)``), next to a third
of the metric's bound in BENCHMARK.json.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--out perfbench/baseline.json]

Runs are sequential, one process at a time.  ``--out`` writes the medians,
spreads, answer-check outcomes and failing problem ids as a baseline record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results, walls, wrong, counts = [], [], {}, {"wrong": 0, "error": 0}
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600,
            )
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".perfbench" / "runs" /
                                 f"{workload}-s{seed}-trace{args.trace}.json").read_text())
            results.append(result)
            wrong[seed] = record["wrong"] + record["errors"]
            counts["wrong"] += len(record["wrong"])
            counts["error"] += len(record["errors"])
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                     if k in bounds or args.trace == 0}
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"digests_changed={record['digests_changed']}/{record['digests_compared']} "
                  f"{json.dumps(shown)}", flush=True)
        entry = {
            "run_wall_s": {"max": max(walls), "median": statistics.median(walls)},
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "wrong_share": counts["wrong"] / sum(r["attempted"] for r in results),
            "error_share": counts["error"] / sum(r["attempted"] for r in results),
            "failing_ids": {str(s): ids for s, ids in wrong.items() if ids},
            "metrics": {},
        }
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            entry["metrics"][name] = {"median": med, "unit": results[0]["metrics"][name]["unit"]}
            if name in bounds and len(values) >= 2 and med:
                entry["metrics"][name]["iqr_share"] = spread(values)
                entry["metrics"][name]["third_of_bound"] = bounds[name] / 3.0
                print(f"  {name:20s} median {med:.5g}  spread {spread(values):.4f}  "
                      f"(bound/3 {bounds[name] / 3.0:.4f})")
        print(f"  failed {entry['failed']} of {entry['attempted']} calls; "
              f"run wall max {max(walls):.1f} s")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
