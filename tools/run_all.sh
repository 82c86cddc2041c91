#!/bin/sh
# Final validation pass: full test suite + every bench binary + trace
# validation + (optional) TSan and ASan+UBSan passes over the
# instrumented engine and the fault-injection chaos suites.
set -u
cd "$(dirname "$0")/.."

# Static analysis first — cheapest stage, fails fastest. The invariant
# linter (pure python) always runs and any finding fails the pass. When
# clang is available the clang-tidy baseline gate and a clang build with
# -Werror=thread-safety (FEDCA_STATIC_ANALYSIS=ON) run too; on the
# gcc-only container those sub-stages print SKIP. FEDCA_LINT=0 skips the
# whole stage.
if [ "${FEDCA_LINT:-1}" != "0" ]; then
  echo "===== lint =====" | tee /root/repo/lint_output.txt
  python3 tools/lint_fedca.py 2>&1 | tee -a /root/repo/lint_output.txt || exit 1
  python3 tools/run_clang_tidy.py --build-dir build 2>&1 \
    | tee -a /root/repo/lint_output.txt || exit 1
  if command -v clang++ >/dev/null 2>&1; then
    echo "--- thread-safety build (clang) ---" | tee -a /root/repo/lint_output.txt
    cmake -B build-sa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DFEDCA_STATIC_ANALYSIS=ON >>/root/repo/lint_output.txt 2>&1 &&
    cmake --build build-sa -j "$(nproc)" >>/root/repo/lint_output.txt 2>&1 \
      || { echo "thread-safety build FAILED (see lint_output.txt)"; exit 1; }
  else
    echo "--- thread-safety build: SKIP (no clang++) ---" \
      | tee -a /root/repo/lint_output.txt
  fi
fi

# Semantic analyzer: the token-level static-analysis tier (include/layering
# DAG against tools/analyze/layers.spec, lock-order graph + callbacks-under-
# lock, scope-aware determinism/seam rules). Unlike the regex linter above
# it folds in the build's compile_commands.json, so a missing database is a
# configuration error (the binary exits 2), not a silent skip.
# FEDCA_ANALYZE=0 skips the stage.
if [ "${FEDCA_ANALYZE:-1}" != "0" ]; then
  echo "===== analyze =====" | tee /root/repo/analyze_output.txt
  cmake --build build --target fedca_analyze -j "$(nproc)" \
    >>/root/repo/analyze_output.txt 2>&1 \
    || { echo "fedca_analyze build FAILED (see analyze_output.txt)"; exit 1; }
  # No pipefail in sh: capture the analyzer's own status, then echo.
  build/tools/analyze/fedca_analyze --root . --build build \
    --spec tools/analyze/layers.spec >/root/repo/analyze_findings.txt 2>&1
  analyze_status=$?
  cat /root/repo/analyze_findings.txt | tee -a /root/repo/analyze_output.txt
  [ "$analyze_status" -eq 0 ] || exit "$analyze_status"
fi

ctest --test-dir build 2>&1 | tee /root/repo/test_output.txt
mkdir -p /root/repo/results
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b ====="
  "$b" csv_dir=/root/repo/results
done 2>&1 | tee /root/repo/bench_output.txt

# Scenario regression net: every committed scenarios/*.scn must reproduce
# its pinned run-report digest (tests/golden/scenario_*.sha256). This is
# the same check the per-scenario ctest entries run, but standalone so a
# golden drift is reported with the offending digest up front.
# FEDCA_SCENARIOS=0 skips; regenerate goldens with
# `python3 tools/scenario_digest.py --build build --update`.
if [ "${FEDCA_SCENARIOS:-1}" != "0" ]; then
  echo "===== scenario goldens ====="
  python3 tools/scenario_digest.py --build build --check \
    2>&1 | tee /root/repo/scenario_output.txt || exit 1
fi

# Kernel bench smoke: refresh BENCH_kernels.json (before/after numbers for
# the blocked GEMM + parallel engine work). The kernel sources are compiled
# -O3 regardless of the top-level build type; FEDCA_BENCH_KERNELS=0 skips.
if [ "${FEDCA_BENCH_KERNELS:-1}" != "0" ]; then
  echo "===== kernel benches ====="
  python3 tools/bench_kernels.py --build build --out BENCH_kernels.json \
    2>&1 | tee /root/repo/kernel_bench_output.txt
fi

# Allocation bench: refresh BENCH_memory.json via the counting-allocator
# harness (heap allocations per steady-state round, pool off vs on; fails
# if the pool-on reduction drops below 10x). FEDCA_BENCH_MEMORY=0 skips.
if [ "${FEDCA_BENCH_MEMORY:-1}" != "0" ]; then
  echo "===== memory bench ====="
  python3 tools/bench_memory.py --build build --out BENCH_memory.json \
    2>&1 | tee /root/repo/memory_bench_output.txt
fi

# Recorder/report bench: refresh BENCH_obs.json (recorder throughput, hot-loop
# overhead recorder-on vs off <= 5%, byte-identity of model state and
# run_report.jsonl across worker counts). FEDCA_BENCH_OBS=0 skips.
if [ "${FEDCA_BENCH_OBS:-1}" != "0" ]; then
  echo "===== obs bench ====="
  python3 tools/bench_obs.py --build build --out BENCH_obs.json \
    2>&1 | tee /root/repo/obs_bench_output.txt || exit 1
fi

# Scale bench: refresh BENCH_scale.json via the million-client harness
# (population sweep at 1k/10k/100k/1M with rounds/sec + peak RSS + live
# client-state bytes; fails if the 1M sweep exceeds 2 GB RSS or holds more
# than 112 B of live client state per client).
# FEDCA_BENCH_SCALE=0 skips.
if [ "${FEDCA_BENCH_SCALE:-1}" != "0" ]; then
  echo "===== scale bench ====="
  python3 tools/bench_scale.py --build build --out BENCH_scale.json \
    2>&1 | tee /root/repo/scale_bench_output.txt || exit 1
fi

# SIMD tier sweep: the kernel property suites must pass with the dispatch
# forced to the portable scalar tier AND left on auto (best vector tier on
# this host) — the two runs prove the tiers are interchangeable, and the
# suites' own cross-tier memcmp checks prove they are bit-identical.
# FEDCA_SIMD_SWEEP=0 skips.
if [ "${FEDCA_SIMD_SWEEP:-1}" != "0" ]; then
  echo "===== simd tier sweep =====" | tee /root/repo/simd_output.txt
  for tier in scalar auto; do
    for t in tensor_simd_kernels_test tensor_gemm_property_test; do
      echo "--- $t (FEDCA_SIMD=$tier) ---"
      FEDCA_SIMD=$tier "build/tests/$t" || exit 1
    done
  done 2>&1 | tee -a /root/repo/simd_output.txt
fi

# Observability smoke: a traced quickstart must produce a Chrome-trace file
# that check_trace.py accepts, with the canonical span set present, and a
# run_report.jsonl that tools/report.py validates structurally.
echo "===== traced quickstart ====="
FEDCA_TRACE=/root/repo/results/quickstart_trace.json \
FEDCA_METRICS=/root/repo/results/quickstart_metrics.csv \
  build/examples/quickstart rounds=6 clients=6 k=12 samples=600 \
  report=/root/repo/results/quickstart_report.jsonl \
  2>&1 | tee /root/repo/trace_output.txt
python3 tools/check_trace.py /root/repo/results/quickstart_trace.json \
  --expect download --expect compute --expect upload.final --expect aggregate \
  --expect round 2>&1 | tee -a /root/repo/trace_output.txt
python3 tools/report.py /root/repo/results/quickstart_report.jsonl --summary \
  2>&1 | tee -a /root/repo/trace_output.txt || exit 1

# TSan pass over the concurrency-sensitive pieces (the metrics registry,
# the tracer, and the instrumented round engine under the thread pool).
# FEDCA_TSAN=0 skips it (e.g. when the toolchain lacks libtsan).
if [ "${FEDCA_TSAN:-1}" != "0" ]; then
  echo "===== tsan =====" | tee /root/repo/tsan_output.txt
  cmake -B build-tsan -S . -DFEDCA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >>/root/repo/tsan_output.txt 2>&1 &&
  cmake --build build-tsan --target obs_metrics_test obs_trace_test \
    obs_recorder_test fl_round_engine_test fl_parallel_determinism_test \
    fl_async_engine_test tensor_pool_test tensor_simd_kernels_test \
    tensor_gemm_property_test -j "$(nproc)" \
    >>/root/repo/tsan_output.txt 2>&1 &&
  for t in obs_metrics_test obs_trace_test obs_recorder_test \
           fl_round_engine_test fl_parallel_determinism_test \
           fl_async_engine_test tensor_pool_test; do
    echo "--- $t (tsan) ---"
    # FEDCA_TENSOR_POOL=1 routes every Tensor buffer through the pool's
    # thread-cache/global-tier handoff while the engines run multithreaded.
    FEDCA_TENSOR_POOL=1 "build-tsan/tests/$t" || exit 1
  done 2>&1 | tee -a /root/repo/tsan_output.txt
  # Kernel property suites under TSan in both dispatch tiers: the packed
  # GEMM's thread_local scratch and the once-resolved tier cache are the
  # racy-by-construction pieces this pass is meant to vet.
  for tier in scalar auto; do
    for t in tensor_simd_kernels_test tensor_gemm_property_test; do
      echo "--- $t (tsan, FEDCA_SIMD=$tier) ---"
      FEDCA_SIMD=$tier FEDCA_TENSOR_POOL=1 "build-tsan/tests/$t" || exit 1
    done
  done 2>&1 | tee -a /root/repo/tsan_output.txt
fi

# ASan+UBSan pass over the fault-injection layer and the hardened engines:
# the chaos suites exercise the unhappy paths (infinite finish times,
# partial aggregation, abandoned async cycles) where lifetime and UB bugs
# would hide. FEDCA_ASAN=0 skips it (e.g. when the toolchain lacks libasan).
if [ "${FEDCA_ASAN:-1}" != "0" ]; then
  echo "===== asan+ubsan =====" | tee /root/repo/asan_output.txt
  cmake -B build-asan -S . -DFEDCA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >>/root/repo/asan_output.txt 2>&1 &&
  cmake --build build-asan --target sim_fault_injection_test \
    fl_robustness_test tensor_pool_test -j "$(nproc)" \
    >>/root/repo/asan_output.txt 2>&1 &&
  for t in sim_fault_injection_test fl_robustness_test tensor_pool_test; do
    echo "--- $t (asan+ubsan) ---"
    # Pool on: recycled-buffer lifetime and poisoning run under ASan too.
    FEDCA_TENSOR_POOL=1 "build-asan/tests/$t" || exit 1
  done 2>&1 | tee -a /root/repo/asan_output.txt
fi
