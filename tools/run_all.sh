#!/bin/sh
# Final validation pass: full test suite + every bench binary + trace
# validation + (optional) TSan and ASan+UBSan passes over the
# instrumented engine and the fault-injection chaos suites.
set -u
cd "$(dirname "$0")/.."

# Every stage runs even after an earlier one failed; the script exits
# with the first failing stage's own status and lists every failure.
first_status=0
failures=""
# fail_stage STATUS WHAT: records a failed stage.
fail_stage() {
  [ "$first_status" -ne 0 ] || first_status=$1
  failures="$failures
  $2 (exit $1)"
}

# run_logged LOG CMD [ARG...]: runs CMD (a program or a shell function)
# with its output shown and appended to LOG, and records CMD's own status
# if it failed. sh has no pipefail, so `CMD | tee LOG || exit 1` would
# only ever see tee's status.
run_logged() {
  log=$1
  shift
  status_file=$(mktemp)
  { "$@" 2>&1; echo $? >"$status_file"; } | tee -a "$log"
  status=$(cat "$status_file")
  rm -f "$status_file"
  if [ "${status:-1}" -ne 0 ]; then
    echo "FAILED (exit ${status:-1}): $*" | tee -a "$log"
    fail_stage "${status:-1}" "$* (see $log)"
  fi
}

# keep_going CMD [ARG...]: for the steps of a multi-step stage function.
# Runs CMD; if it fails, says so and keeps the first failing status in
# step_status, which the stage returns once all its steps have run.
keep_going() {
  "$@" && return 0
  step_status_now=$?
  echo "FAILED (exit $step_status_now): $*"
  [ "$step_status" -ne 0 ] || step_status=$step_status_now
}

# The ctest stage includes the static analysis (tools_fedca_analyze_tree)
# and every scenario golden (tools_golden_scenario_*, `ctest -L scenario`).
: >test_output.txt
run_logged test_output.txt ctest --test-dir build

# Every paper bench with its tables written to results/. micro_kernels is
# a Google Benchmark binary that takes --benchmark_* flags, not key=value
# ones, and obs_harness takes no csv_dir=; the kernel and obs bench stages
# below run them.
run_benches() {
  step_status=0
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    case "${b##*/}" in micro_kernels | obs_harness) continue ;; esac
    echo "===== $b ====="
    keep_going "$b" csv_dir=results
  done
  return "$step_status"
}
mkdir -p results
: >bench_output.txt
run_logged bench_output.txt run_benches

# Kernel bench smoke: refresh BENCH_kernels.json (before/after numbers for
# the blocked GEMM + parallel engine work). The kernel sources are compiled
# -O3 regardless of the top-level build type; FEDCA_BENCH_KERNELS=0 skips.
if [ "${FEDCA_BENCH_KERNELS:-1}" != "0" ]; then
  echo "===== kernel benches =====" | tee kernel_bench_output.txt
  run_logged kernel_bench_output.txt \
    python3 tools/bench_kernels.py --build build --out BENCH_kernels.json
fi

# Tracing bench: refresh BENCH_obs.json (hot-loop overhead of tracing on
# vs off <= 5%). FEDCA_BENCH_OBS=0 skips.
if [ "${FEDCA_BENCH_OBS:-1}" != "0" ]; then
  echo "===== obs bench =====" | tee obs_bench_output.txt
  run_logged obs_bench_output.txt \
    python3 tools/bench_obs.py --build build --out BENCH_obs.json
fi

# SIMD tier sweep: the kernel property suites must pass with the dispatch
# forced to the portable scalar tier AND left on auto (best vector tier on
# this host) — the two runs prove the tiers are interchangeable, and the
# suites' own cross-tier memcmp checks prove they are bit-identical.
# FEDCA_SIMD_SWEEP=0 skips.
simd_sweep() {
  step_status=0
  for tier in scalar auto; do
    for t in tensor_simd_kernels_test tensor_gemm_property_test; do
      echo "--- $t (FEDCA_SIMD=$tier) ---"
      keep_going env FEDCA_SIMD=$tier "build/tests/$t"
    done
  done
  return "$step_status"
}
if [ "${FEDCA_SIMD_SWEEP:-1}" != "0" ]; then
  echo "===== simd tier sweep =====" | tee simd_output.txt
  run_logged simd_output.txt simd_sweep
fi

# Observability smoke: a traced quickstart must produce, for each scheme it
# runs, a Chrome-trace file that check_trace.py accepts, with the canonical
# span set present, and a run_report.jsonl that tools/report.py validates
# structurally. Every experiment writes its own files: quickstart puts
# ".<scheme>" before each path's extension.
echo "===== traced quickstart =====" | tee trace_output.txt
run_logged trace_output.txt env \
  FEDCA_TRACE=results/quickstart_trace.json \
  FEDCA_METRICS=results/quickstart_metrics.csv \
  build/examples/quickstart rounds=6 clients=6 k=12 samples=600 \
  report=results/quickstart_report.jsonl scheme=fedavg,fedca
for scheme in fedavg fedca; do
  run_logged trace_output.txt \
    python3 tools/check_trace.py "results/quickstart_trace.$scheme.json" \
    --expect download --expect compute --expect upload.final --expect aggregate \
    --expect round
  run_logged trace_output.txt \
    python3 tools/report.py "results/quickstart_report.$scheme.jsonl" --summary
done

# TSan pass over the concurrency-sensitive pieces (the metrics registry,
# the tracer with eight threads recording at once, the thread pool's
# parallel loop, and the instrumented round engine under it).
# FEDCA_TSAN=0 skips it (e.g. when the toolchain lacks libtsan).
tsan_pass() {
  step_status=0
  cmake -B build-tsan -S . -DFEDCA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >>tsan_output.txt 2>&1 &&
  cmake --build build-tsan --target obs_metrics_test obs_trace_test \
    obs_session_test fl_round_engine_test util_thread_pool_dynamic_test \
    fl_parallel_determinism_test fl_async_engine_test fl_robustness_test \
    tensor_simd_kernels_test tensor_gemm_property_test -j "$(nproc)" \
    >>tsan_output.txt 2>&1 \
    || { echo "tsan build FAILED (see tsan_output.txt)"; return 1; }
  for t in obs_metrics_test obs_trace_test obs_session_test \
           util_thread_pool_dynamic_test \
           fl_round_engine_test fl_parallel_determinism_test \
           fl_async_engine_test fl_robustness_test; do
    echo "--- $t (tsan) ---"
    keep_going "build-tsan/tests/$t"
  done
  # Kernel property suites under TSan in both dispatch tiers: the packed
  # GEMM's thread_local scratch and the once-resolved tier cache are the
  # racy-by-construction pieces this pass is meant to vet.
  for tier in scalar auto; do
    for t in tensor_simd_kernels_test tensor_gemm_property_test; do
      echo "--- $t (tsan, FEDCA_SIMD=$tier) ---"
      keep_going env FEDCA_SIMD=$tier "build-tsan/tests/$t"
    done
  done
  return "$step_status"
}
if [ "${FEDCA_TSAN:-1}" != "0" ]; then
  echo "===== tsan =====" | tee tsan_output.txt
  run_logged tsan_output.txt tsan_pass
fi

# ASan+UBSan pass over the fault-injection layer and the hardened engines:
# the chaos suites exercise the unhappy paths (infinite finish times,
# partial aggregation, abandoned async cycles) where lifetime and UB bugs
# would hide; the LSTM suite covers its reused step cache, its cacheless
# eval mode and the packed-weight GEMMs; the CNN suite and the ops suite
# cover the ReLU/MaxPool kernels' vector loads, the conv packers' masked
# loads (PackedB::pack_conv / pack_conv_t) and the layers' cacheless eval
# mode; the GEMM property and conv equivalence suites cover prepacked
# operands across block edges; the session suite covers the observability
# outputs' lifetime (one obs::Session per experiment, flushed by its
# destructor); the exp suite, without its 2^32 sweeps, covers the AVX-512
# sigmoid's masked tail loads and its libm fallback lanes, in and out of
# place.
# FEDCA_ASAN=0 skips it (e.g. when the toolchain lacks libasan).
asan_pass() {
  step_status=0
  cmake -B build-asan -S . -DFEDCA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >>asan_output.txt 2>&1 &&
  cmake --build build-asan --target sim_fault_injection_test \
    fl_robustness_test nn_lstm_bitpin_test nn_cnn_bitpin_test tensor_ops_test \
    tensor_gemm_property_test nn_conv_equivalence_test obs_session_test \
    tensor_exp_test -j "$(nproc)" \
    >>asan_output.txt 2>&1 \
    || { echo "asan build FAILED (see asan_output.txt)"; return 1; }
  for t in sim_fault_injection_test fl_robustness_test nn_lstm_bitpin_test \
           nn_cnn_bitpin_test tensor_ops_test tensor_gemm_property_test \
           nn_conv_equivalence_test obs_session_test; do
    echo "--- $t (asan+ubsan) ---"
    keep_going "build-asan/tests/$t"
  done
  echo "--- tensor_exp_test (asan+ubsan, no 2^32 sweep) ---"
  keep_going build-asan/tests/tensor_exp_test --gtest_filter='-*OnAllInputs'
  return "$step_status"
}
if [ "${FEDCA_ASAN:-1}" != "0" ]; then
  echo "===== asan+ubsan =====" | tee asan_output.txt
  run_logged asan_output.txt asan_pass
fi

if [ "$first_status" -ne 0 ]; then
  echo "===== run_all: FAILED stages:$failures"
  exit "$first_status"
fi
echo "===== run_all: every stage passed ====="
