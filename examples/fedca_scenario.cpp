// Scenario runner: load a declarative scenario file and run it.
//
// Usage: fedca_scenario FILE [key=value ...]
//
// The file is the scenario tier; FEDCA_* environment variables overlay it
// (env tier); trailing key=value arguments are the programmatic tier and
// win over both. Supported overrides: seed, rounds, target, workers,
// updates (async engine), trace, metrics, report.
//
// Exit codes: 0 success, 1 usage error, 2 scenario parse/validation error
// (the ScenarioError's file:line message is printed to stderr) or a
// malformed override (a non-integer value, or workers outside [0, 4096]).
#include <iostream>
#include <memory>
#include <string>

#include "core/factory.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "sim/scenario.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace fedca;

namespace {

int run(const fl::Scenario& scenario, fl::ExperimentOptions& options,
        const util::Config& overrides) {
  // Programmatic tier: explicit command-line overrides beat file and env.
  options.seed = static_cast<std::uint64_t>(
      overrides.get_int("seed", static_cast<long long>(options.seed)));
  options.max_rounds = static_cast<std::size_t>(overrides.get_int(
      "rounds", static_cast<long long>(options.max_rounds)));
  options.target_accuracy =
      overrides.get_double("target", options.target_accuracy);
  const long workers =
      overrides.get_int("workers", static_cast<long>(options.worker_threads));
  if (workers < 0 || static_cast<std::size_t>(workers) > util::ThreadPool::kMaxWorkers) {
    std::cerr << "fedca_scenario: key 'workers': expected an integer in [0, "
              << util::ThreadPool::kMaxWorkers << "], got " << workers << "\n";
    return 2;
  }
  options.worker_threads = static_cast<std::size_t>(workers);
  options.trace_path = overrides.get_string("trace", options.trace_path);
  options.metrics_path = overrides.get_string("metrics", options.metrics_path);
  options.report_path = overrides.get_string("report", options.report_path);

  util::Config scheme_cfg = fl::scheme_config(scenario);
  std::unique_ptr<fl::Scheme> scheme =
      core::make_scheme(scenario.scheme, scheme_cfg, options.seed);

  if (!scenario.async_engine) {
    const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
    util::Table table({"scheme", "rounds", "virtual time (s)",
                       "final accuracy", "mean round (s)"});
    table.add_row({result.scheme_name, std::to_string(result.rounds.size()),
                   util::Table::fmt(result.total_time, 1),
                   util::Table::fmt(result.final_accuracy, 3),
                   util::Table::fmt(result.mean_round_seconds, 2)});
    table.print(std::cout);
    return 0;
  }

  // Async engine path: run_experiment() is round-based, so wire the
  // cluster/model/shards directly and drive a fixed number of updates; the
  // setup's session writes the armed outputs when it goes out of scope.
  const std::size_t updates = static_cast<std::size_t>(overrides.get_int(
      "updates", static_cast<long long>(scenario.async_updates)));
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme);
  fl::AsyncEngineOptions async_options = scenario.async;
  async_options.optimizer = options.optimizer;
  async_options.worker_threads = options.worker_threads;
  fl::AsyncEngine async(setup.model.get(), setup.cluster.get(), setup.shards,
                        async_options, util::Rng(options.seed ^ 0xA5),
                        setup.session.get());
  async.run_updates(updates);
  const auto eval = fl::evaluate_global(setup);
  std::cout << "async: " << updates << " updates, final accuracy "
            << util::Table::fmt(eval.accuracy, 3) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '\0' || argv[1][0] == '-') {
    std::cerr << "usage: fedca_scenario FILE [key=value ...]\n";
    return 1;
  }
  try {
    const fl::Scenario scenario = fl::load_scenario_file(argv[1]);
    // Env tier (FEDCA_TRACE/METRICS/REPORT/THREADS) overlays
    // the file; the command line overlays both inside run().
    fl::ExperimentOptions options = fl::resolve_options(scenario);
    // Overrides start at argv[2]: shift so Config sees them as args.
    const util::Config overrides = util::Config::from_args(argc - 1, argv + 1);
    util::print_section(std::cout,
                        scenario.name.empty() ? std::string("scenario")
                                              : scenario.name,
                        argv[1]);
    return run(scenario, options, overrides);
  } catch (const sim::scenario::ScenarioError& e) {
    std::cerr << "fedca_scenario: " << e.what() << "\n";
    return 2;
  } catch (const util::ConfigError& e) {
    std::cerr << "fedca_scenario: " << e.what() << "\n";
    return 2;
  }
}
