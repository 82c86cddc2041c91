#!/usr/bin/env python3
"""Observability benchmark runner: drives bench/obs_harness and writes
BENCH_obs.json (checked in at the repo root).

One gated measurement:

  * hot-loop overhead — wall seconds of the same seeded FedCA round loop
    (--rounds rounds, ~2 s per arm at the default) with the tracer +
    per-kernel spans fully ON vs fully OFF, run as --pairs (at least 9)
    back-to-back on/off pairs whose order alternates. The gate is the
    median of the per-pair ON/OFF ratios, which must stay <= 1.05: a
    pair's two runs share the host's state of the moment, so their ratio
    cancels drift that a min-of-N per arm (also recorded, as
    ratio_min_of_n) mistakes for overhead. On a shared 4-vCPU host single
    pairs of 0.6 s arms (16 rounds) spread 0.93-1.22.

Byte-identity of the model across workers x tracing on/off, and of the
run report across workers, is a ctest matter
(ParallelDeterminism.RecorderOnOffAcrossWorkerCounts and
tools_golden_report_*), not a benchmark.

Provenance: the harness reports its build_type and simd_tier with every
overhead run; a run from a debug build is refused with exit 2 so
checked-in numbers always come from an optimized build.

Usage:
    python3 tools/bench_obs.py [--build build] [--out BENCH_obs.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

OVERHEAD_LIMIT = 1.05
MIN_PAIRS = 9


def run_harness(binary: Path, **kv) -> dict:
    cmd = [str(binary)] + [f"{k}={v}" for k, v in kv.items()]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise RuntimeError(f"obs_harness failed: {' '.join(cmd)}")
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_obs.json", help="output path")
    parser.add_argument("--rounds", type=int, default=48,
                        help="measured rounds per overhead arm")
    parser.add_argument("--pairs", type=int, default=11,
                        help=f"on/off pairs for the overhead gate (>= {MIN_PAIRS})")
    args = parser.parse_args()

    if args.pairs < MIN_PAIRS:
        print(f"error: --pairs {args.pairs} < {MIN_PAIRS}: too few pairs for a "
              "median to gate on", file=sys.stderr)
        return 2

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "obs_harness"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    # Each pair runs both arms back to back, alternating which goes first,
    # so slow drift in machine load hits both arms of a pair alike.
    ratios = []
    runs = {0: [], 1: []}
    for pair in range(args.pairs):
        seconds = {}
        for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
            run = run_harness(binary, mode="overhead", trace=trace,
                              rounds=args.rounds)
            if run.get("build_type") != "release":
                print(
                    f"error: refusing to record numbers from a "
                    f"'{run.get('build_type')}' build — rebuild with NDEBUG "
                    "(Release/RelWithDebInfo) and rerun",
                    file=sys.stderr,
                )
                return 2
            runs[trace].append(run)
            seconds[trace] = run["seconds"]
        ratios.append(seconds[1] / seconds[0])
    overhead_ratio = statistics.median(ratios)
    best = {t: min(r, key=lambda run: run["seconds"]) for t, r in runs.items()}
    min_of_n_ratio = best[1]["seconds"] / best[0]["seconds"]

    out = {
        "description": "Hot-loop overhead of tracing on vs off (FedCA round "
                       "loop, CNN/8 clients).",
        "build_type": best[1]["build_type"],
        "simd_tier": best[1]["simd_tier"],
        "overhead": {
            "rounds": args.rounds,
            "pairs": args.pairs,
            "seconds_recorder_off_median": round(
                statistics.median(r["seconds"] for r in runs[0]), 6),
            "seconds_recorder_on_median": round(
                statistics.median(r["seconds"] for r in runs[1]), 6),
            "events_recorded": best[1]["events"],
            "pair_ratios": [round(r, 4) for r in ratios],
            "ratio": round(overhead_ratio, 4),
            "ratio_min_of_n": round(min_of_n_ratio, 4),
            "limit": OVERHEAD_LIMIT,
        },
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    print(
        f"tracing overhead ratio "
        f"{out['overhead']['ratio']}x in the median pair (min-of-N "
        f"{out['overhead']['ratio_min_of_n']}x; limit {OVERHEAD_LIMIT}x)",
        file=sys.stderr,
    )
    if overhead_ratio > OVERHEAD_LIMIT:
        print(f"FAIL: traced round loop is {overhead_ratio:.3f}x the "
              f"untraced loop in the median pair (limit {OVERHEAD_LIMIT}x)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
