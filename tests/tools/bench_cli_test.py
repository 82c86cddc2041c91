#!/usr/bin/env python3
"""Hostile values and unknown keys reaching a paper bench (bench::run) or
quickstart (its own flat keys).

Every bad count, scale, model or scheme name, every malformed number or
boolean, and every key the program does not read exits 2 with a
diagnostic that names the key, before any training starts (nothing
reaches stdout, where a program prints its tables). A paper bench spells
a run setting as a scenario key (section.key=value); quickstart keeps its
flat keys (--quickstart).

Usage:
  bench_cli_test.py --bench BIN [--quickstart]
"""

import argparse
import os
import subprocess
import sys

# (argv, key the diagnostic must name), for both kinds of program.
COMMON_CASES = [
    (["banana"], "banana"),
    (["ronuds=3"], "ronuds"),
    (["scale=huge"], "scale"),
    (["lr=abc"], "lr"),
    (["dynamicity=maybe"], "dynamicity"),
]

BENCH_CASES = [
    (["data.clients=-1"], "clients"),
    (["data.clients=0"], "clients"),
    (["training.local_iterations=-1"], "local_iterations"),
    (["data.batch=0"], "batch"),
    (["data.train_samples=-5"], "train_samples"),
    (["data.test_samples=0"], "test_samples"),
    (["run.rounds=abc"], "rounds"),
    (["run.rounds=0"], "rounds"),
    (["data.ronuds=3"], "ronuds"),
    (["training.lr=abc"], "lr"),
    (["cluster.dynamicity=maybe"], "dynamicity"),
    (["bogus.key=1"], "bogus"),
    (["scheme.fedca_bogus=1"], "fedca_bogus"),
    (["scheme.fedca_beta=abc"], "fedca_beta"),
    (["scheme.fedca_min_iterations=-1"], "fedca_min_iterations"),
    (["scheme.fedca_sample_fraction=0"], "fedca_sample_fraction"),
    (["scheme.compress=zip"], "compress"),
    (["models=xyz"], "models"),
    (["schemes=bogus"], "schemes"),
    (["schemes=fedavg,bogus"], "schemes"),
]

QUICKSTART_CASES = [
    (["clients=-1"], "clients"),
    (["clients=0"], "clients"),
    (["k=-1"], "'k'"),
    (["batch=0"], "batch"),
    (["samples=-5"], "samples"),
    (["test_samples=0"], "test_samples"),
    (["rounds=abc"], "rounds"),
    (["rounds=0"], "rounds"),
    (["alpha=abc"], "alpha"),
    (["model=xyz"], "model"),
    (["scheme=bogus"], "scheme"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, help="a bench binary")
    parser.add_argument("--quickstart", action="store_true",
                        help="the binary is quickstart (flat keys)")
    args = parser.parse_args()
    cases = COMMON_CASES + (QUICKSTART_CASES if args.quickstart else BENCH_CASES)

    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDCA_")}
    failures = []
    for argv, key in cases:
        label = " ".join(argv)
        try:
            proc = subprocess.run([args.bench, *argv], capture_output=True, text=True,
                                  env=env, timeout=60)
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
