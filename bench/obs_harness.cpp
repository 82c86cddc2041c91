// Observability harness — drives the tracer and the RoundReport pipeline
// for tools/bench_obs.py and the golden-report ctest. Modes:
//
//   mode=overhead trace=0|1 rounds=R [workers=W]   (the default mode)
//       Wall-seconds of R steady-state FedCA rounds with the tracer
//       (and per-kernel spans) fully on vs fully off — the ≤5% hot-loop
//       overhead gate.
//   mode=report   scenario=faultfree|faults out=PATH [rounds=R]
//       Runs a fixed seeded scenario with the run-report armed, writing
//       run_report.jsonl to PATH (round lines from the round engine plus
//       a short async-engine segment). tools/report.py validates and
//       digests the file against the committed goldens.
//
// Wall-clock use here is the point of the bench (real overhead), so this
// file is outside the src/-scoped wall-clock lint rule.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "core/factory.hpp"
#include "fl/async_engine.hpp"
#include "obs/session.hpp"
#include "tensor/simd/dispatch.hpp"

namespace {

using namespace fedca;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fixed seeded geometry shared by the overhead and report modes:
// small enough for ctest, rich enough to exercise early stops, eager
// layers, shedding, and (scenario=faults) the PR2-style fault schedule.
fl::ExperimentOptions scenario_options(const std::string& scenario,
                                       std::size_t workers) {
  // analyze:waive(scenario-hardcode) pinned with an async tail by run_report_*
  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 8;
  options.local_iterations = 6;
  options.batch_size = 16;
  options.train_samples = 640;
  options.test_samples = 32;
  options.collect_fraction = 0.75;  // shed outcomes in every round
  options.seed = 33;
  options.worker_threads = workers;
  if (scenario == "faults") {
    // Horizon matched to the scenario's virtual timescale (~8 rounds in
    // ~8 virtual seconds) so crashes and dropout windows actually land
    // inside the run.
    options.faults.enabled = true;
    options.faults.horizon_seconds = 8.0;
    options.faults.crash_fraction = 0.25;
    options.faults.dropouts_per_client = 1.0;
    options.faults.dropout_mean_seconds = 1.0;
    options.faults.eager_loss_probability = 0.15;
    options.faults.seed = 7;
  }
  return options;
}

// The overhead mode's outputs: trace=1 records every span, kernel spans
// included (the worst case), into a trace the session writes to /dev/null
// when the setup goes away; trace=0 arms nothing. The environment is not
// read.
obs::SessionOptions traced_outputs(bool trace) {
  obs::SessionOptions outputs;
  if (trace) {
    outputs.trace_path = "/dev/null";
    outputs.kernel_detail = true;
  }
  return outputs;
}

int run_overhead(const util::Config& config) {
  const bool trace = config.get_int("trace", 0) != 0;
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 8));
  const auto warmup = static_cast<std::size_t>(config.get_int("warmup", 2));
  const auto workers = static_cast<std::size_t>(config.get_int("workers", 1));

  fl::ExperimentOptions options = scenario_options("faultfree", workers);
  std::unique_ptr<fl::Scheme> scheme = core::make_scheme("fedca", config, 1);
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme, traced_outputs(trace));
  for (std::size_t r = 0; r < warmup; ++r) setup.engine->run_round();

  const double start = wall_seconds();
  for (std::size_t r = 0; r < rounds; ++r) setup.engine->run_round();
  const double seconds = wall_seconds() - start;

  std::printf(
      "{\"mode\":\"overhead\",\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"trace\":%d,\"rounds\":%zu,\"workers\":%zu,"
      "\"seconds\":%.6f,\"events\":%zu}\n",
      bench::build_type(), tensor::simd::active_tier_name(),
      trace ? 1 : 0, rounds, workers, seconds,
      trace ? setup.session->trace()->event_count() : 0);
  return 0;
}

int run_report(const util::Config& config) {
  const std::string scenario = config.get_string("scenario", "faultfree");
  const std::string out = config.get_string("out", "run_report.jsonl");
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 4));
  const auto workers = static_cast<std::size_t>(config.get_int("workers", 1));
  const auto updates = static_cast<std::size_t>(config.get_int("updates", 16));

  fl::ExperimentOptions options = scenario_options(scenario, workers);
  std::unique_ptr<fl::Scheme> scheme = core::make_scheme("fedca", config, 1);
  obs::SessionOptions outputs;
  outputs.report_path = out;
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme, outputs);
  for (std::size_t r = 0; r < rounds; ++r) setup.engine->run_round();

  // A short async segment on the same cluster so the golden also covers
  // async_update lines (applied + lost/crash/dropout under `faults`).
  if (updates > 0) {
    fl::AsyncEngineOptions async_options;
    async_options.local_iterations = 4;
    async_options.batch_size = options.batch_size;
    async_options.cycle_timeout = 7.0;  // just above the typical ~5.7s cycle
    async_options.worker_threads = workers;
    fl::AsyncEngine async(setup.model.get(), setup.cluster.get(), setup.shards,
                          async_options, util::Rng(options.seed ^ 0xA5),
                          setup.session.get());
    async.run_updates(updates);
  }

  std::printf(
      "{\"mode\":\"report\",\"build_type\":\"%s\",\"simd_tier\":\"%s\","
      "\"scenario\":\"%s\",\"out\":\"%s\",\"lines\":%zu}\n",
      bench::build_type(), tensor::simd::active_tier_name(), scenario.c_str(),
      out.c_str(), setup.session->report()->line_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config config = bench::parse_flat_args(
      argc, argv, {"mode", "trace", "rounds", "warmup", "workers", "scenario", "out", "updates"});
  // FedCA profiles one round in 5 here, as in the quick-scale cells.
  if (!config.contains("fedca_period")) config.set("fedca_period", "5");
  const std::string mode = config.get_string("mode", "overhead");
  if (mode == "overhead") return run_overhead(config);
  if (mode == "report") return run_report(config);
  std::fprintf(stderr, "obs_harness: unknown mode '%s'\n", mode.c_str());
  return 2;
}
