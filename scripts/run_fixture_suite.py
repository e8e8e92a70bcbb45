#!/usr/bin/env python3
"""Drive the CLI over the bundled fixture problems and summarize the results.

Usage: python scripts/run_fixture_suite.py [--seed N]

Each line holds the first 12 hex digits of the sha256 of the rendered
report, then a summary; equal digests in two runs mean byte-identical
reports.  A verify summary counts the directions that converged and the
parabolic-regularity checks that hold.  A certify summary ends
with the oracle's verdict on a failing SSOSC (agree or DISAGREE; n/a when
SSOSC holds and the one growth run, at epsilon = 0.01, judges it instead).
The script exits 1 if any command exits nonzero.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from epidiff.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

PLAN = [
    ("a1_parabola.json", ["analyze", "verify", "check-cq"]),
    ("plq_abs.json", ["analyze", "verify", "certify", "check-cq"]),
    ("psd_cone.json", ["analyze", "verify", "certify", "check-cq"]),
    ("parabola_min.json", ["verify", "certify", "check-cq"]),
    ("min_quartic.json", ["verify", "certify"]),
    ("mscq_fail.json", ["check-cq"]),
    ("polyhedron_m6.json", ["analyze", "verify", "certify", "check-cq"]),
    ("max_eig.json", ["analyze", "verify"]),
    ("sum_top_eig.json", ["analyze", "verify", "certify"]),
    ("alpha_eig.json", ["analyze", "verify"]),
    ("plq_2d.json", ["analyze", "verify", "certify", "check-cq"]),
    ("plq_kernel.json", ["analyze", "verify", "certify"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    failures = 0
    for fixture, commands in PLAN:
        path = str(FIXTURES / fixture)
        for command in commands:
            argv = [command, path]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            start = time.time()
            code, text = run(argv)
            elapsed = time.time() - start
            summary = ""
            if "--- machine readable ---" in text:
                block = json.loads(text.split("--- machine readable ---")[1])
                if command == "analyze":
                    duals = [d["dual"] for d in block.get("directions", [])]
                    summary = f"tau={block.get('tau')} duals={duals}"
                elif command == "verify":
                    rows = block.get("directions", [])
                    regular = sum((r.get("parabolic_regularity") or {}).get("holds", False) for r in rows)
                    summary = (f"{sum(r['converged'] for r in rows)}/{len(rows)} converged "
                               f"{regular}/{len(rows)} parabolic")
                elif command == "certify":
                    judged = block.get("oracle")
                    verdict = "n/a" if judged is None else "agree" if judged["converged"] else "DISAGREE"
                    summary = (
                        f"ssosc={block['ssosc']['holds']} "
                        f"sms={block['sms_certificate']['affirmative']} oracle={verdict}"
                    )
                else:
                    kappa_hat = block["mscq"]["kappa_hat"]
                    if not isinstance(kappa_hat, str):
                        kappa_hat = f"{kappa_hat:.3g}"
                    summary = f"mscq={block['mscq']['holds_evidence']} kappa_hat={kappa_hat}"
            # every fixture is expected to pass: exit 1 marks a numerical
            # disagreement, any other nonzero exit a failed precondition or parse
            status = {0: "ok", 1: "DISAGREEMENT"}.get(code, f"exit {code}")
            failures += code != 0
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            print(f"{fixture:22s} {command:9s} [{status}] {elapsed:6.2f}s {digest}  {summary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
