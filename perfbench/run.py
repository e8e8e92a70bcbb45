#!/usr/bin/env python3
"""End-to-end benchmark of the epidiff CLI on seeded, generated problems.

    python3 perfbench/run.py --workload spectral-oracle --seed 1 --seconds 25 --trace 0

One client, one process, one thread, closed loop: each CLI call goes
in-process through ``epidiff.cli.run(argv)`` and the next starts when it
returns.  The loop runs whole rounds (one problem of every shape in the
workload's mix, see ``gen.py``), as many as take ``--seconds`` at nominal
host speed, so every run of a seed measures the same work.  Every problem
runs once and every report is checked against what the generator built in
(``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` every call also runs a second time
under the layer tracer (``layers.py``) and the JSON holds the per-layer
metrics and the tracing overhead.  Run records, report digests and the last
trace of each workload go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, and drop settings that would
# change the library's answers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("EPIDIFF_SEED", "EPIDIFF_BREAK_FORMULA"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 7
# Host-speed probe: every PROBE_PERIOD_S a timer signal runs a fixed
# pure-Python kernel in the benchmark's own thread, and each set-up probe runs
# it SETUP_KERNELS times when done.  The gated timings are rescaled by
# REF_NOMINAL_S / (trimmed mean kernel time), i.e. to the host speed at which
# the kernel takes REF_NOMINAL_S (about that of an unloaded 2-core Xeon VM),
# so that the shared host's own speed drift does not read as a change.
PROBE_PERIOD_S = 0.05
PROBE_ITERS = 2000
SETUP_KERNELS = 50
REF_NOMINAL_S = 1.8e-4
# Seconds one round of each workload takes at nominal host speed (ten-seed
# medians).  A run does ceil(--seconds / round time) whole rounds (half the
# time per round for a traced run): a fixed count, so two runs of one seed do
# exactly the same work and their answer checks and report digests can be
# compared call by call.
NOMINAL_ROUND_S = {"spectral-oracle": 14.0, "polyhedral-scaling": 15.0, "certify-smooth": 19.0}
WARMUP_ARGV = ["check-cq", "--samples", "24"]
COMMANDS = ("analyze", "verify", "certify", "check-cq")
# The end-to-end metrics printed in the result line with --trace 0.
GATED = (("problems_per_min_norm", "1/min"), ("cpu_s_per_problem_norm", "s"),
         ("peak_rss_mb", "MB"), ("setup_s", "s"))


class SetupError(Exception):
    pass


def load_cli():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "epidiff" / "cli.py").is_file():
        raise SetupError(f"no epidiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import epidiff.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"epidiff imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, argv):
    """One CLI call: (exit code or None, text, wall seconds, cpu seconds)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code, text = cli.run(argv)
    except (Exception, SystemExit) as exc:  # a crash is a measured outcome
        code, text = None, f"{type(exc).__name__}: {exc}"
    return code, text, time.perf_counter() - t0, time.process_time() - c0


def kernel_s() -> float:
    """One run of the fixed reference kernel; returns its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(PROBE_ITERS):
        acc += k * k % 7
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """REF_NOMINAL_S over the kernel's mean time, slowest tenth dropped."""
    kept = sorted(samples)[: max(1, int(len(samples) * 0.9))]
    return REF_NOMINAL_S / statistics.fmean(kept)


class SpeedProbe:
    """Samples the speed of this thread while the loop runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        dt = kernel_s()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def write_problem(workdir: Path, problem) -> str:
    path = workdir / (problem.pid.replace("/", "_") + ".json")
    path.write_text(json.dumps(problem.data))
    return str(path)


# -- set-up ------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """What every run does before its loop: import, generate, parse each file
    once, one warm-up call.  Run in a fresh interpreter and timed from outside;
    it then runs the reference kernel and prints its times for the rescaling."""
    import gen

    cli = load_cli()
    from epidiff.problem_io import parse_problem

    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = [write_problem(workdir, p) for p in gen.round_problems(workload, seed, 0)]
        for path in paths:
            parse_problem(path)
        code, _, _, _ = invoke(cli, [WARMUP_ARGV[0], paths[0]] + WARMUP_ARGV[1:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps([kernel_s() for _ in range(SETUP_KERNELS)]))
    return 0 if code == 0 else 1


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPS set-up probes: (raw, rescaled to nominal host
    speed by each probe's own kernel times, with the kernel time taken out)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        kernels = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(wall - sum(kernels))
        scaled.append(raw[-1] * speed_factor(kernels))
    return raw, scaled


# -- the measured loop ---------------------------------------------------------------


def run_loop(cli, workload: str, seed: int, rounds: int, tracer=None) -> dict:
    """Closed loop over whole rounds.  With a tracer, each call runs untraced
    and then traced on the same file; the untraced call is the one timed.
    Time spent in the speed probe is taken out of every wall time."""
    import checks
    import gen

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    calls, problems = [], 0
    try:
        with SpeedProbe() as probe:
            t0, c0 = time.perf_counter(), time.process_time()
            for r in range(rounds):
                for problem in gen.round_problems(workload, seed, r):
                    path = write_problem(workdir, problem)
                    for command, extra in problem.commands:
                        argv = [command, path] + extra
                        spent = probe.spent
                        code, text, wall, cpu = invoke(cli, argv)
                        rec = {"problem": problem, "command": command, "code": code,
                               "text": text, "wall": wall - (probe.spent - spent),
                               "cpu": cpu - (probe.spent - spent)}
                        if tracer is not None:
                            inv = {"pid": problem.pid, "command": command, "m": problem.m}
                            spent = probe.spent
                            with tracer.installed(inv):
                                tcode, ttext, twall, _ = invoke(cli, argv)
                            rec["traced_wall"] = twall - (probe.spent - spent)
                            rec["traced_same"] = (tcode, ttext) == (code, text)
                        calls.append(rec)
                    problems += 1
            loop_wall = time.perf_counter() - t0 - probe.spent
            loop_cpu = time.process_time() - c0 - probe.spent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for rec in calls:
        rec["status"], rec["reasons"] = checks.judge(rec["problem"], rec["command"],
                                                     rec["code"], rec["text"])
        rec["digest"] = hashlib.sha256(rec["text"].encode()).hexdigest()
    return {"calls": calls, "problems": problems, "rounds": rounds, "wall": loop_wall, "cpu": loop_cpu,
            "speed_factor": speed_factor(probe.samples)}


# -- statistics ------------------------------------------------------------------------


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def compare_digests(workload: str, seed: int, digests: dict) -> tuple[int, int]:
    """(compared, changed) against the previous run of the same code with the
    same workload and seed; then this run becomes the previous one."""
    path = OUT / "digests" / f"{workload}-s{seed}.json"
    code = code_hash()
    compared = changed = 0
    if path.is_file():
        prev = json.loads(path.read_text())
        if prev.get("code") == code:
            for key, dig in digests.items():
                if key in prev["digests"]:
                    compared += 1
                    changed += prev["digests"][key] != dig
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "digests": digests}, indent=0, sort_keys=True))
    return compared, changed


# -- report ------------------------------------------------------------------------------


def summarize(workload: str, seed: int, seconds: int, trace: bool,
              setup: tuple[list[float], list[float]], loop: dict, tracer=None) -> dict:
    calls = loop["calls"]
    attempted = len(calls)
    errors = [c for c in calls if c["status"] == "error"]
    wrong = [c for c in calls if c["status"] in ("flagged", "silent")]
    silent = [c for c in calls if c["status"] == "silent"]
    digests = {f"{c['problem'].pid} {c['command']}": c["digest"] for c in calls}
    compared, changed = compare_digests(workload, seed, digests)
    traced_mismatch = [c for c in calls if trace and not c["traced_same"]]

    meta = metadata()
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"loop: {loop['rounds']} rounds, {loop['problems']} problems, {attempted} calls "
          f"in {loop['wall']:.3f} s wall, {loop['cpu']:.3f} s cpu")
    speed = loop["speed_factor"]
    e2e = [("setup_s", statistics.median(setup[1]), "s"),
           ("setup_s_raw", statistics.median(setup[0]), "s")]
    for command in COMMANDS:
        walls = [c["wall"] for c in calls if c["command"] == command]
        key = command.replace("-", "")
        if not walls:
            e2e.append((f"{key}_s_p50", "n/a (command not in this mix)", ""))
            continue
        e2e.append((f"{key}_s_p50", statistics.median(walls), "s"))
        e2e.append((f"{key}_s_p50_norm", statistics.median(walls) * speed, "s"))
        t = tail(walls)
        e2e.append((f"{key}_s_tail", "n/a (fewer than 11 calls)" if t is None else
                    f"{t[0]:.6g} (p{t[1]:.1f} of {t[2]} calls)", "s"))
    e2e += [
        ("problems_per_min", 60.0 * loop["problems"] / loop["wall"], "1/min"),
        ("problems_per_min_norm", 60.0 * loop["problems"] / (loop["wall"] * speed), "1/min"),
        ("cpu_s_per_problem", loop["cpu"] / loop["problems"], "s"),
        ("cpu_s_per_problem_norm", loop["cpu"] * speed / loop["problems"], "s"),
        ("error_share", len(errors) / attempted, "ratio"),
        ("wrong_share", len(wrong) / attempted, "ratio"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        ("host_speed_factor", speed, "ratio"),
    ]
    print("end-to-end metrics:")
    for name, value, unit in e2e:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:24s} {shown} {unit}")
    for c in errors + wrong:
        print(f"  {c['status']:7s} {c['problem'].pid} {c['command']}: {'; '.join(c['reasons'])}")
    combined = hashlib.sha256("\n".join(f"{k} {v}" for k, v in sorted(digests.items())).encode())
    print(f"digests: {len(digests)} reports, combined sha256 {combined.hexdigest()}, "
          f"{changed} of {compared} differ from the previous run of this code")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "meta": meta, "setup_raw_s": setup[0], "setup_norm_s": setup[1], "rounds": loop["rounds"],
        "problems": loop["problems"], "loop_wall_s": loop["wall"], "loop_cpu_s": loop["cpu"],
        "metrics": {name: value for name, value, _ in e2e},
        "wrong": sorted(f"{c['problem'].pid} {c['command']}" for c in wrong),
        "errors": sorted(f"{c['problem'].pid} {c['command']}" for c in errors),
        "digests": digests, "digests_compared": compared, "digests_changed": changed,
        "calls": [{"problem": c["problem"].pid, "command": c["command"], "exit": c["code"],
                   "wall_s": c["wall"], "cpu_s": c["cpu"], "status": c["status"],
                   "reasons": c["reasons"]} for c in calls],
    }
    if trace:
        untraced = sum(c["wall"] for c in calls)
        overhead = (sum(c["traced_wall"] for c in calls) - untraced) / untraced
        layer = tracer.metrics(overhead)
        record["per_layer"] = layer
        record["traced_mismatch"] = [f"{c['problem'].pid} {c['command']}" for c in traced_mismatch]
        print(f"tracing overhead: {overhead:.4f} of untraced wall; "
              f"{len(traced_mismatch)} traced reports differ from untraced")
        tracer.save(OUT / f"trace-{workload}.npz")
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-s{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    if trace:
        import layers

        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in layers.metric_names()}
    else:
        metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in GATED}
    return {
        "correct": not errors and not silent and not traced_mismatch,
        "attempted": attempted,
        "failed": len(errors) + len(wrong),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    import gen

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        cli = load_cli()
        setup = measure_setup(args.workload, args.seed)
        # the same warm-up in this process, so the loop starts warm
        first = gen.round_problems(args.workload, args.seed, 0)[0]
        OUT.mkdir(parents=True, exist_ok=True)
        warm = OUT / f"warmup-{os.getpid()}.json"
        warm.write_text(json.dumps(first.data))
        try:
            invoke(cli, [WARMUP_ARGV[0], str(warm)] + WARMUP_ARGV[1:])
        finally:
            warm.unlink()
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
        # a traced run makes every call twice, so it fits half as many rounds
        passes = 2 if args.trace else 1
        rounds = max(1, math.ceil(args.seconds / (passes * NOMINAL_ROUND_S[args.workload])))
        loop = run_loop(cli, args.workload, args.seed, rounds, tracer)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = summarize(args.workload, args.seed, args.seconds, bool(args.trace), setup, loop, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
