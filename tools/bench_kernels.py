#!/usr/bin/env python3
"""Kernel benchmark runner: measures the compute-layer microbenches and
writes BENCH_kernels.json (checked in at the repo root) with before/after
numbers.

The "before" column is the frozen pre-optimization baseline measured on the
reference container (single-core Xeon 2.10 GHz, gcc 12, RelWithDebInfo)
right before the blocked-GEMM/parallel-engine change landed; BM_GemmRef
re-measures the retained naive kernel so the comparison stays honest on
other hosts.

Provenance: the binary stamps fedca_build_type and fedca_simd_tier into
the benchmark context (recorded in the output JSON). A debug build is
refused with exit 2 — checked-in BENCH numbers must come from an
optimized build. The run exits 1 (after writing the output) when a
transposed GEMM variant is more than MAX_TRANSPOSED_RATIO times slower than
plain BM_Gemm at the same size: all three variants share one packed
microkernel, so such a gap means a variant has left that path. It also
exits 1 when one conv1 im2col (BM_Im2col/conv1) is more than
MAX_LOWERING_RATIO times slower than the GEMM that consumes its panel
(BM_LayerGemm/conv1_fwd): the lowering is a copy and should cost no more
than the arithmetic on it. And it exits 1 when the vector tanh
(BM_Tanh/kernel) is not at least MIN_TANH_SPEEDUP times faster than
glibc's tanhf on the same 1920 floats (BM_Tanh/libm): it returns libm's
bits, so its speed is the only reason it exists. And it exits 1 when
LeNet-5's parameter-free layers at conv1 (BM_ParamFree/conv1: ReLU and
MaxPool, forward and backward) take more than MAX_PARAM_FREE_SHARE of one
training step (BM_CnnTrainingIteration): they do no arithmetic. Usage:

    python3 tools/bench_kernels.py [--build build] [--out BENCH_kernels.json]
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

# Frozen pre-PR measurements (ns) on the reference container. BM_Gemm was
# the naive triple loop then — identical code to today's BM_GemmRef.
BASELINE_NS = {
    "BM_Gemm/32": 5594,
    "BM_Gemm/64": 36442,
    "BM_Gemm/128": 314522,
    "BM_StatisticalProgress/1024": 3586,
    "BM_StatisticalProgress/65536": 224066,
    "BM_CnnTrainingIteration": 3910746,
}

FILTER = ("BM_(Gemm|GemmNT|GemmTN|GemmRef|LayerGemm|Im2col|"
          "Col2im|Axpy|Dot|"
          "L2Norm|Scale|BiasAdd|RowSum|ConvForward|ConvBackward|"
          "StatisticalProgress|CnnTrainingIteration|RoundThroughput|"
          "LstmForward|LstmBackwardParams|Tanh|ParamFree)")

# BM_GemmNT/n and BM_GemmTN/n may be at most this many times slower than
# BM_Gemm/n for every square size n in GUARDED_SIZES.
MAX_TRANSPOSED_RATIO = 1.5
GUARDED_SIZES = (32, 64, 128)

# BM_Im2col/conv1 may be at most this many times slower than
# BM_LayerGemm/conv1_fwd.
MAX_LOWERING_RATIO = 1.5


# BM_Tanh/libm must take at least this many times as long as
# BM_Tanh/kernel.
MIN_TANH_SPEEDUP = 2.0

# BM_ParamFree/conv1 may take at most this share of
# BM_CnnTrainingIteration.
MAX_PARAM_FREE_SHARE = 0.10


def transposed_gaps(after):
    """(name, ratio) for every transposed GEMM slower than the guard allows."""
    gaps = []
    for n in GUARDED_SIZES:
        plain = after.get(f"BM_Gemm/{n}")
        if not plain or plain["real_time_ns"] <= 0:
            continue
        for variant in ("BM_GemmNT", "BM_GemmTN"):
            entry = after.get(f"{variant}/{n}")
            if entry is None:
                continue
            ratio = entry["real_time_ns"] / plain["real_time_ns"]
            if ratio > MAX_TRANSPOSED_RATIO:
                gaps.append((f"{variant}/{n}", ratio))
    return gaps


def lowering_gap(after):
    """(name, ratio) when conv1's im2col is slower than the guard allows."""
    gemm = after.get("BM_LayerGemm/conv1_fwd")
    lowering = after.get("BM_Im2col/conv1")
    if not gemm or not lowering or gemm["real_time_ns"] <= 0:
        return []
    ratio = lowering["real_time_ns"] / gemm["real_time_ns"]
    return [("BM_Im2col/conv1", ratio)] if ratio > MAX_LOWERING_RATIO else []


def tanh_gap(after):
    """(name, speedup) when the vector tanh is not fast enough vs libm."""
    libm = after.get("BM_Tanh/libm")
    kernel = after.get("BM_Tanh/kernel")
    if not libm or not kernel or kernel["real_time_ns"] <= 0:
        return []
    speedup = libm["real_time_ns"] / kernel["real_time_ns"]
    return [("BM_Tanh/kernel", speedup)] if speedup < MIN_TANH_SPEEDUP else []


def param_free_gap(after):
    """(name, share) when conv1's ReLU + MaxPool take too much of a step."""
    step = after.get("BM_CnnTrainingIteration")
    layers = after.get("BM_ParamFree/conv1")
    if not step or not layers or step["real_time_ns"] <= 0:
        return []
    share = layers["real_time_ns"] / step["real_time_ns"]
    return [("BM_ParamFree/conv1", share)] if share > MAX_PARAM_FREE_SHARE else []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_kernels.json", help="output path")
    parser.add_argument("--min-time", default="0.2",
                        help="benchmark_min_time (seconds, no unit suffix)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "micro_kernels"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    cmd = [
        str(binary),
        f"--benchmark_filter={FILTER}",
        "--benchmark_format=json",
        # NOTE: this google-benchmark build rejects a "s" unit suffix here.
        f"--benchmark_min_time={args.min_time}",
    ]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return run.returncode
    data = json.loads(run.stdout)

    context = data.get("context", {})
    build_type = context.get("fedca_build_type")
    if build_type != "release":
        print(
            f"error: refusing to record numbers from a "
            f"'{build_type}' build — rebuild with NDEBUG "
            "(Release/RelWithDebInfo) and rerun",
            file=sys.stderr,
        )
        return 2
    print(f"dispatch tier: {context.get('fedca_simd_tier')}", file=sys.stderr)

    after = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        after[name] = {
            "real_time_ns": round(bench["real_time"], 1),
            "items_per_second": bench.get("items_per_second"),
        }

    speedups = {}
    for name, before_ns in BASELINE_NS.items():
        entry = after.get(name)
        if entry and entry["real_time_ns"] > 0:
            speedups[name] = round(before_ns / entry["real_time_ns"], 2)
    libm = after.get("BM_Tanh/libm")
    kernel = after.get("BM_Tanh/kernel")
    if libm and kernel and kernel["real_time_ns"] > 0:
        speedups["tanh_libm_vs_kernel"] = round(
            libm["real_time_ns"] / kernel["real_time_ns"], 2)
    # The live naive-vs-blocked ratio on THIS host (BM_GemmRef is the old
    # BM_Gemm implementation).
    for n in (32, 64, 128):
        ref = after.get(f"BM_GemmRef/{n}")
        opt = after.get(f"BM_Gemm/{n}")
        if ref and opt and opt["real_time_ns"] > 0:
            speedups[f"ref_vs_blocked/{n}"] = round(
                ref["real_time_ns"] / opt["real_time_ns"], 2)

    out = {
        "description": "Kernel microbenches: frozen pre-optimization baseline "
                       "(before_ns) vs current build (after).",
        "context": data.get("context", {}),
        "before_ns": BASELINE_NS,
        "after": after,
        "speedup": speedups,
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    gemm128 = speedups.get("BM_Gemm/128")
    if gemm128 is not None:
        print(f"BM_Gemm/128 speedup vs frozen baseline: {gemm128}x",
              file=sys.stderr)

    gaps = transposed_gaps(after)
    for name, ratio in gaps:
        print(f"error: {name} is {ratio:.2f}x slower than plain BM_Gemm at the "
              f"same size (limit {MAX_TRANSPOSED_RATIO}x)", file=sys.stderr)
    slow_lowering = lowering_gap(after)
    for name, ratio in slow_lowering:
        print(f"error: {name} is {ratio:.2f}x slower than "
              f"BM_LayerGemm/conv1_fwd (limit {MAX_LOWERING_RATIO}x)",
              file=sys.stderr)
    slow_tanh = tanh_gap(after)
    for name, speedup in slow_tanh:
        print(f"error: {name} is only {speedup:.2f}x faster than BM_Tanh/libm "
              f"(need {MIN_TANH_SPEEDUP}x)", file=sys.stderr)
    slow_param_free = param_free_gap(after)
    for name, share in slow_param_free:
        print(f"error: {name} is {share:.2f} of BM_CnnTrainingIteration "
              f"(limit {MAX_PARAM_FREE_SHARE})", file=sys.stderr)
    return 1 if gaps or slow_lowering or slow_tanh or slow_param_free else 0


if __name__ == "__main__":
    sys.exit(main())
