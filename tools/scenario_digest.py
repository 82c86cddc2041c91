#!/usr/bin/env python3
"""Golden digests for committed scenarios.

Runs examples/fedca_scenario for each scenario in scenarios/ at each
requested worker count, validates the emitted run report with
tools/report.py, hashes it (sha256 of the raw bytes), and compares
against — or rewrites — the committed digest in
tests/golden/scenario_<name>.sha256.

Checking several worker counts pins two contracts at once: the scenario's
behaviour (the digest equals the golden) and the scheduler's determinism
(the digest is the same for every worker count — reports are built from
virtual-clock data on the driving thread, so thread count must not leak
into the bytes). --update writes a digest only when every worker count
agrees.

The environment's FEDCA_* variables are stripped before each run so the
digest reflects the scenario tier alone (scenario < env < programmatic:
a stray FEDCA_THREADS or FEDCA_REPORT must not leak into goldens); the
report= and workers= arguments are output plumbing, not configuration.

Usage:
  scenario_digest.py --build build --check [NAME ...] [--workers 1,2,8]
  scenario_digest.py --build build --update [NAME ...] [--workers 1,2,8]

With no names, all scenarios/*.scn are covered; ctest runs one name per
entry. Exit codes: 0 all match (or updated), 1 digest mismatch / run
failure, 2 usage or setup error.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPORT_PY = REPO / "tools" / "report.py"


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FEDCA_")}


def run_digest(runner: Path, scenario: Path, workers: int) -> str:
    """The validated report's digest, or "" after printing why not."""
    label = f"{scenario.stem} workers={workers}"
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "run_report.jsonl"
        proc = subprocess.run(
            [str(runner), str(scenario), f"report={report}",
             f"workers={workers}"],
            capture_output=True, text=True, env=clean_env())
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"FAIL: {label}: {runner.name} exited {proc.returncode}",
                  file=sys.stderr)
            return ""
        if not report.exists():
            print(f"FAIL: {label}: no report", file=sys.stderr)
            return ""
        check = subprocess.run([sys.executable, str(REPORT_PY), str(report)],
                               capture_output=True, text=True)
        if check.returncode != 0:
            sys.stderr.write(check.stdout)
            sys.stderr.write(check.stderr)
            print(f"FAIL: {label}: report.py exited {check.returncode}",
                  file=sys.stderr)
            return ""
        return hashlib.sha256(report.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build",
                        help="build directory holding examples/fedca_scenario")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare digests against tests/golden/")
    mode.add_argument("--update", action="store_true",
                      help="rewrite tests/golden/ digests")
    parser.add_argument("--workers", default="1,2,8",
                        help="comma-separated worker counts to run")
    parser.add_argument("names", nargs="*",
                        help="scenario names (default: all in scenarios/)")
    args = parser.parse_args()

    runner = REPO / args.build / "examples" / "fedca_scenario"
    if not runner.exists():
        print(f"error: {runner} not built (cmake --build {args.build})",
              file=sys.stderr)
        return 2
    try:
        workers = [int(w) for w in args.workers.split(",") if w]
    except ValueError:
        workers = []
    if not workers:
        print(f"error: --workers {args.workers!r} is not a list of counts",
              file=sys.stderr)
        return 2

    scenario_dir = REPO / "scenarios"
    if args.names:
        scenarios = [scenario_dir / f"{n}.scn" for n in args.names]
        missing = [s for s in scenarios if not s.exists()]
        if missing:
            print(f"error: no such scenario: "
                  f"{', '.join(m.stem for m in missing)}", file=sys.stderr)
            return 2
    else:
        scenarios = sorted(scenario_dir.glob("*.scn"))
    if not scenarios:
        print("error: no scenarios found", file=sys.stderr)
        return 2

    golden_dir = REPO / "tests" / "golden"
    failures = 0
    for scenario in scenarios:
        golden = golden_dir / f"scenario_{scenario.stem}.sha256"
        digests = [run_digest(runner, scenario, count) for count in workers]
        if "" in digests:
            failures += 1
            continue
        if len(set(digests)) != 1:
            runs = ", ".join(f"workers={w}: {d}" for w, d in zip(workers, digests))
            print(f"FAIL: {scenario.stem}: digests differ across worker "
                  f"counts ({runs})", file=sys.stderr)
            failures += 1
            continue
        digest = digests[0]
        if args.update:
            golden.write_text(digest + "\n")
            print(f"updated {golden.relative_to(REPO)}: {digest}")
            continue
        if not golden.exists():
            print(f"FAIL: {scenario.stem}: missing golden {golden.name} "
                  f"(run with --update)", file=sys.stderr)
            failures += 1
            continue
        expected = golden.read_text().strip()
        if digest != expected:
            print(f"FAIL: {scenario.stem}: digest {digest} != golden "
                  f"{expected} (workers {args.workers})", file=sys.stderr)
            failures += 1
        else:
            print(f"ok: {scenario.stem} {digest} (workers {args.workers})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
