#!/usr/bin/env python3
"""Hostile worker counts and scheme values reaching examples/fedca_scenario.

Three contracts:
  1. A run.workers= override outside [0, 4096], or not an integer, exits 2
     with a diagnostic that names the key, before any training starts.
  2. A FEDCA_THREADS value that is not a plain decimal in [1, 4096] is
     ignored: the run exits 0 and its report digest equals the digest of
     the same run without the variable.
  3. A [scheme] hyperparameter of the wrong type or out of range exits 2
     with nothing on stdout and a diagnostic at <overrides>:1 that names
     the key.

Usage:
  scenario_runner_workers_test.py --runner BIN --scenario FILE
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FEDCA_")}


def fail(message: str) -> int:
    print("FAIL: " + message, file=sys.stderr)
    return 1


def report_digest(runner: str, scenario: str, env: dict, tmp: str,
                  tag: str):
    """(exit code, sha256 of the report or None, stderr) of one run."""
    report = Path(tmp) / f"report_{tag}.jsonl"
    proc = subprocess.run([runner, scenario, f"observability.report={report}"],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    digest = (hashlib.sha256(report.read_bytes()).hexdigest()
              if report.exists() else None)
    return proc.returncode, digest, proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runner", required=True, help="fedca_scenario binary")
    parser.add_argument("--scenario", required=True, help="scenario file")
    args = parser.parse_args()

    for value in ("-1", "4097", "5000", "banana"):
        proc = subprocess.run([args.runner, args.scenario, f"run.workers={value}"],
                              capture_output=True, text=True, env=clean_env(),
                              timeout=600)
        if proc.returncode != 2:
            return fail(f"workers={value}: expected exit 2, got "
                        f"{proc.returncode}\n{proc.stderr}")
        if "'workers'" not in proc.stderr:
            return fail(f"workers={value}: diagnostic does not name the key:"
                        f"\n{proc.stderr}")

    for assignment in ("scheme.fedca_beta=abc", "scheme.fedca_min_iterations=-1"):
        proc = subprocess.run([args.runner, args.scenario, assignment],
                              capture_output=True, text=True, env=clean_env(),
                              timeout=600)
        key = assignment.split(".", 1)[1].split("=", 1)[0]
        if proc.returncode != 2:
            return fail(f"{assignment}: expected exit 2, got "
                        f"{proc.returncode}\n{proc.stderr}")
        if proc.stdout:
            return fail(f"{assignment}: printed output: {proc.stdout!r}")
        if "<overrides>:1" not in proc.stderr or f"'{key}'" not in proc.stderr:
            return fail(f"{assignment}: diagnostic does not place and name the key:"
                        f"\n{proc.stderr}")

    with tempfile.TemporaryDirectory() as tmp:
        code, baseline, err = report_digest(args.runner, args.scenario,
                                            clean_env(), tmp, "plain")
        if code != 0 or baseline is None:
            return fail(f"plain run exited {code}\n{err}")
        for value in ("-1", "5000", "banana", "0"):
            env = clean_env()
            env["FEDCA_THREADS"] = value
            code, digest, err = report_digest(args.runner, args.scenario, env,
                                              tmp, "env")
            if code != 0:
                return fail(f"FEDCA_THREADS={value}: exited {code}\n{err}")
            if digest != baseline:
                return fail(f"FEDCA_THREADS={value}: digest {digest} != "
                            f"{baseline} without the variable")
    print("scenario runner worker counts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
