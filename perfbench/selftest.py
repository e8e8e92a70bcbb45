#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

1. The generator is deterministic per seed and differs across seeds.
2. With EPIDIFF_BREAK_FORMULA=1 set in a child process, the answer checks
   report wrong answers on spectral-oracle.
3. Traced and untraced calls give byte-identical reports.
4. In a directory holding only BENCHMARK.json and the benchmark, the run
   fails without printing a result.

Each check that runs the CLI does so in a child process, so the parent's
environment and imported modules stay untouched.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

CHILD = """
import json, os, sys
sys.path.insert(0, {here!r})
import layers, run
cli = run.load_cli()
os.environ.update({env!r})
tracer = layers.Tracer() if {traced!r} else None
loop = run.run_loop(cli, {workload!r}, {seed!r}, 1, tracer)
calls = loop["calls"]
print(json.dumps({{
    "statuses": [c["status"] for c in calls],
    "traced_same": [c.get("traced_same") for c in calls],
}}))
"""


def child(workload: str, seed: int, env: dict, traced: bool) -> dict:
    code = CHILD.format(here=str(HERE), env=env, traced=traced, workload=workload, seed=seed)
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT), capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"child failed: {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_generator_determinism():
    for workload in gen.WORKLOADS:
        a = [p.data for p in gen.round_problems(workload, 7, 0)]
        b = [p.data for p in gen.round_problems(workload, 7, 0)]
        c = [p.data for p in gen.round_problems(workload, 8, 0)]
        d = [p.data for p in gen.round_problems(workload, 7, 1)]
        assert json.dumps(a) == json.dumps(b), f"{workload}: same seed, different problems"
        assert json.dumps(a) != json.dumps(c), f"{workload}: seeds 7 and 8 give the same problems"
        assert json.dumps(a) != json.dumps(d), f"{workload}: rounds 0 and 1 are the same"


def check_broken_formula_is_caught():
    out = child("spectral-oracle", 3, {"EPIDIFF_BREAK_FORMULA": "1"}, traced=False)
    wrong = [s for s in out["statuses"] if s in ("flagged", "silent")]
    assert wrong, f"EPIDIFF_BREAK_FORMULA=1 went unnoticed: {out['statuses']}"


def check_tracing_keeps_reports():
    out = child("spectral-oracle", 4, {}, traced=True)
    assert out["traced_same"] and all(out["traced_same"]), \
        f"traced reports differ from untraced: {out['traced_same']}"


def check_bare_directory_fails():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        bench = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the run succeeded without the library's sources"
    assert '"correct"' not in proc.stdout, "the run printed a result without the library"


def main() -> int:
    checks = [check_generator_determinism, check_broken_formula_is_caught,
              check_tracing_keeps_reports, check_bare_directory_fails]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"PASS {check.__name__}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
