#!/usr/bin/env python3
"""Hostile sizes and unknown keys reaching a paper bench through
bench::parse_config (or quickstart through bench::parse_args).

Every bad count (clients, k, rounds, ...) or scale, given on the command
line or as a FEDCA_* variable, and every key no bench reads, exits 2 with
a diagnostic that names the key, before any training starts (nothing
reaches stdout, where a bench prints its tables). --cli-only skips the
FEDCA_* cases, for a program that reads no size from the environment.

Usage:
  bench_cli_test.py --bench BIN [--cli-only]
"""

import argparse
import os
import subprocess
import sys

# (extra argv, extra env, key the diagnostic must name)
CASES = [
    (["clients=-1"], {}, "clients"),
    (["clients=0"], {}, "clients"),
    (["k=-1"], {}, "'k'"),
    (["batch=0"], {}, "batch"),
    (["samples=-5"], {}, "samples"),
    (["test_samples=0"], {}, "test_samples"),
    (["rounds=abc"], {}, "rounds"),
    (["rounds=0"], {}, "rounds"),
    (["scale=huge"], {}, "scale"),
    ([], {"FEDCA_CLIENTS": "-1"}, "clients"),
    ([], {"FEDCA_CLIENTS": "0"}, "clients"),
    ([], {"FEDCA_K": "-1"}, "'k'"),
    ([], {"FEDCA_ROUNDS": "abc"}, "rounds"),
    ([], {"FEDCA_SCALE": "huge"}, "scale"),
    (["banana"], {}, "banana"),
    (["ronuds=3"], {}, "ronuds"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, help="a bench binary")
    parser.add_argument("--cli-only", action="store_true",
                        help="skip the FEDCA_* environment cases")
    args = parser.parse_args()
    cases = [c for c in CASES if not (args.cli_only and c[1])]

    base_env = {k: v for k, v in os.environ.items() if not k.startswith("FEDCA_")}
    failures = []
    for argv, env, key in cases:
        label = " ".join(argv + [f"{k}={v}" for k, v in env.items()])
        try:
            proc = subprocess.run([args.bench, *argv], capture_output=True, text=True,
                                  env={**base_env, **env}, timeout=60)
        except subprocess.TimeoutExpired:
            failures.append(f"{label}: still running after 60 s (a run started)")
            continue
        if proc.returncode != 2:
            failures.append(f"{label}: expected exit 2, got {proc.returncode}\n{proc.stderr}")
        elif key not in proc.stderr:
            failures.append(f"{label}: diagnostic does not name {key}: {proc.stderr!r}")
        elif proc.stdout:
            failures.append(f"{label}: printed output, so a run started: {proc.stdout!r}")
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {len(cases)} bad values each exit 2 naming the key")
    return 0


if __name__ == "__main__":
    sys.exit(main())
