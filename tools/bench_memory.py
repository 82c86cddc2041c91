#!/usr/bin/env python3
"""Allocation benchmark runner: drives the counting-allocator harness
(bench/memory_harness) at 1 and 4 worker threads and writes
BENCH_memory.json (checked in at the repo root) with per-round allocation
counts and peak heap bytes.

The harness overrides global operator new/delete in its own translation
unit, so these numbers count every heap allocation in the process during
the measured steady-state rounds (after warmup).

Gates (exit 1 on failure), per worker count:
  * allocs_per_round at most the ceiling;
  * peak_bytes at most the ceiling.
Each ceiling is a recorded baseline plus MARGIN. The baselines are the
pool-off arms of the last BENCH_memory.json recorded while the tensor
buffer pool existed (pool off is the program that remains): 1329.6 /
1343.7 allocations per round and 9 046 592 / 13 816 144 peak bytes at
1 / 4 workers.

Provenance: the harness reports its build_type and simd_tier; a debug
build is refused with exit 2 so checked-in numbers always come from an
optimized build. Usage:

    python3 tools/bench_memory.py [--build build] [--out BENCH_memory.json]
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKER_COUNTS = (1, 4)
# Headroom over the baselines. Repeat runs of one build agree to well
# under 0.1%, so the margin is room for code changes, not for noise.
MARGIN = 0.10
BASELINE_ALLOCS_PER_ROUND = {1: 1329.6, 4: 1343.7}
BASELINE_PEAK_BYTES = {1: 9_046_592, 4: 13_816_144}
ALLOCS_PER_ROUND_CEILING = {
    w: round(v * (1.0 + MARGIN), 1) for w, v in BASELINE_ALLOCS_PER_ROUND.items()
}
PEAK_BYTES_CEILING = {
    w: int(v * (1.0 + MARGIN)) for w, v in BASELINE_PEAK_BYTES.items()
}


def run_harness(binary: Path, rounds: int, warmup: int, workers: int) -> dict:
    cmd = [
        str(binary),
        f"rounds={rounds}",
        f"warmup={warmup}",
        f"workers={workers}",
    ]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise RuntimeError(f"memory_harness failed: {' '.join(cmd)}")
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_memory.json", help="output path")
    parser.add_argument("--rounds", type=int, default=30,
                        help="measured steady-state rounds")
    parser.add_argument("--warmup", type=int, default=3,
                        help="warmup rounds before measuring")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "memory_harness"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    # Provenance probe (rounds=0 costs ~nothing): refuse debug builds
    # before burning through the measurement arms.
    probe = run_harness(binary, 0, 0, 1)
    if probe.get("build_type") != "release":
        print(
            f"error: refusing to record numbers from a "
            f"'{probe.get('build_type')}' build — rebuild with NDEBUG "
            "(Release/RelWithDebInfo) and rerun",
            file=sys.stderr,
        )
        return 2
    print(f"dispatch tier: {probe.get('simd_tier')}", file=sys.stderr)

    runs = {f"workers{w}": run_harness(binary, args.rounds, args.warmup, w)
            for w in WORKER_COUNTS}

    out = {
        "description": "Heap allocations per steady-state federated round "
                       "(counting-allocator harness, CNN/8 clients/5 iters).",
        "build_type": probe.get("build_type"),
        "simd_tier": probe.get("simd_tier"),
        "rounds": args.rounds,
        "warmup": args.warmup,
        "runs": runs,
        "ceilings": {
            "margin": MARGIN,
            "allocs_per_round": {f"workers{w}": c
                                 for w, c in ALLOCS_PER_ROUND_CEILING.items()},
            "peak_bytes": {f"workers{w}": c
                           for w, c in PEAK_BYTES_CEILING.items()},
        },
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    failures = []
    for w in WORKER_COUNTS:
        run = runs[f"workers{w}"]
        print(f"workers={w}: {run['allocs_per_round']} allocs/round "
              f"(ceiling {ALLOCS_PER_ROUND_CEILING[w]}), peak "
              f"{run['peak_bytes']} B (ceiling {PEAK_BYTES_CEILING[w]})",
              file=sys.stderr)
        if run["allocs_per_round"] > ALLOCS_PER_ROUND_CEILING[w]:
            failures.append(f"workers={w} allocs_per_round")
        if run["peak_bytes"] > PEAK_BYTES_CEILING[w]:
            failures.append(f"workers={w} peak_bytes")
    if failures:
        print("FAIL: above ceiling: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
