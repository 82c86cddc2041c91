#!/usr/bin/env python3
"""Golden run-report check: runs bench/obs_harness in report mode for one
seeded scenario at each requested worker count and validates every
emitted run_report.jsonl against the committed sha256 digest with
tools/report.py --golden.

Everything in the report is virtual-clock data, so the bytes are exactly
reproducible for a given scenario seed and must not depend on the worker
count — any digest drift means either an intentional schema/scenario
change (regenerate the golden with
`obs_harness mode=report ... && report.py --digest`) or a real
determinism regression.

Usage:
  golden_report_test.py --harness BIN --scenario NAME --golden FILE \
      --report-py tools/report.py [--workers 1,2,8]
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--harness", required=True, help="obs_harness binary")
    parser.add_argument("--scenario", required=True,
                        choices=["faultfree", "faults"])
    parser.add_argument("--golden", required=True,
                        help="file holding the expected sha256 digest")
    parser.add_argument("--report-py", required=True, help="tools/report.py")
    parser.add_argument("--workers", default="1,2,8",
                        help="comma-separated worker counts to assert")
    args = parser.parse_args()

    for workers in [int(w) for w in args.workers.split(",") if w]:
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "run_report.jsonl"
            harness = subprocess.run(
                [args.harness, "mode=report", f"scenario={args.scenario}",
                 f"out={report}", "rounds=4", f"workers={workers}",
                 "updates=16"],
                capture_output=True, text=True)
            sys.stderr.write(harness.stderr)
            if harness.returncode != 0:
                print(f"FAIL: obs_harness workers={workers} exited "
                      f"{harness.returncode}", file=sys.stderr)
                return 1
            check = subprocess.run(
                [sys.executable, args.report_py, str(report), "--summary",
                 "--golden", args.golden],
                capture_output=True, text=True)
            sys.stdout.write(check.stdout)
            sys.stderr.write(check.stderr)
            if check.returncode != 0:
                print(f"FAIL: workers={workers}: report.py exited "
                      f"{check.returncode}", file=sys.stderr)
                return 1
    print(f"golden report OK: scenario={args.scenario} "
          f"workers={{{args.workers}}}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
