// Scenario runner: load a declarative scenario file and run it.
//
// Usage: fedca_scenario FILE [section.key=value ...]
//
// The file is the scenario tier; FEDCA_TRACE / FEDCA_METRICS /
// FEDCA_REPORT / FEDCA_THREADS overlay it (env tier); trailing
// `section.key=value` arguments override any scenario key and win over
// both (run.seed=7, run.rounds=5, run.workers=8, async.updates=32,
// observability.report=r.jsonl, scheme.fedca_beta=0.1, ...).
//
// Exit codes: 0 success, 1 usage error, 2 scenario parse/validation error,
// an override's included (the ScenarioError's file:line message, or
// <overrides>:N for the N-th override, is printed to stderr).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "sim/scenario.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace fedca;

namespace {

int run(const fl::Scenario& scenario) {
  const fl::ExperimentOptions& options = scenario.options;
  std::unique_ptr<fl::Scheme> scheme =
      core::make_scheme(scenario.scheme, fl::scheme_config(scenario), options.seed);

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
  fl::ExperimentSetup setup = fl::make_setup(options, *scheme);
  fl::AsyncEngineOptions async_options = scenario.async;
  async_options.optimizer = options.optimizer;
  async_options.worker_threads = options.worker_threads;
  fl::AsyncEngine async(setup.model.get(), setup.cluster.get(), setup.shards,
                        async_options, util::Rng(options.seed ^ 0xA5),
                        setup.session.get());
  async.run_updates(scenario.async_updates);
  const auto eval = fl::evaluate_global(setup);
  std::cout << "async: " << scenario.async_updates << " updates, final accuracy "
            << util::Table::fmt(eval.accuracy, 3) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '\0' || argv[1][0] == '-') {
    std::cerr << "usage: fedca_scenario FILE [section.key=value ...]\n";
    return 1;
  }
  try {
    // Env tier first, then the command line, so the command line wins.
    std::vector<std::string> overrides = fl::env_overrides();
    overrides.insert(overrides.end(), argv + 2, argv + argc);
    const fl::Scenario scenario = fl::load_scenario_file(argv[1], overrides);
    util::print_section(std::cout,
                        scenario.name.empty() ? std::string("scenario")
                                              : scenario.name,
                        argv[1]);
    return run(scenario);
  } catch (const sim::scenario::ScenarioError& e) {
    std::cerr << "fedca_scenario: " << e.what() << "\n";
    return 2;
  } catch (const util::ConfigError& e) {
    std::cerr << "fedca_scenario: " << e.what() << "\n";
    return 2;
  }
}
