// The suite's four workloads and one timed repetition of each.
//
// Every workload is spelled out here field by field (not through
// bench/common's workload_options), so edits elsewhere cannot move it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "util/config.hpp"

namespace fedca::suite {

struct Workload {
  std::string name;
  fl::ExperimentOptions options;
  // Synchronous workloads: core::make_scheme name, config and seed. Every
  // run executes exactly options.max_rounds rounds; `target` only decides
  // the reported time-to-target, it never stops the run early.
  std::string scheme;
  util::Config scheme_config;
  std::uint64_t scheme_seed = 0;
  double target = 0.0;
  // Asynchronous workload: AsyncEngine::step() calls per rep, grouped into
  // "rounds" of `window` consecutive steps.
  bool async = false;
  fl::AsyncEngineOptions async_options;
  std::size_t updates = 0;
  std::size_t window = 0;
};

// Throws std::invalid_argument for an unknown name. `smoke` shrinks the
// workload to seconds (3 rounds, 10k population, 20 updates).
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;               // setup end -> run end
  std::vector<double> round_ms;      // one sample per round
  std::size_t steps = 0;             // local SGD iterations run
  // Deterministic counts (identical across reps of one seed).
  std::size_t wasted_steps = 0;      // steps of clients whose update was not collected
  std::size_t eager_layers = 0;
  std::size_t retransmitted_layers = 0;
  // FNV-1a of each round's (async: each update's) virtual record.
  std::vector<std::uint64_t> record_fnv;
  // Virtual outputs, each formatted exactly (%.17g / integers / hex), in a
  // fixed order — the correctness gate compares them as strings.
  std::vector<std::pair<std::string, std::string>> outputs;
};

// One full repetition: setup, the whole run, and (async) the final eval.
// Traced reps record spans into SpanLog::global(). `limit` > 0 stops after
// that many rounds (async: updates) — a prefix replay whose record_fnv must
// equal the start of a full rep's.
RepResult run_rep(const Workload& workload, bool traced, std::size_t limit = 0);
// Setup alone (the same path a rep times as setup_s), in seconds.
double run_setup(const Workload& workload);

// `v` with every digit it has (%.17g): outputs and raw timings alike.
std::string exact(double v);

}  // namespace fedca::suite
