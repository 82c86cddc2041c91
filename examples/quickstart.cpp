// Quickstart: train a federated CNN with FedCA and compare against FedAvg.
//
// Demonstrates the one-call experiment API:
//   1. describe the workload (model, clients, non-IID alpha, K, batch),
//   2. build a scheme from the factory,
//   3. run_experiment() — returns the accuracy-vs-virtual-time curve and
//      per-round behaviour.
//
// Usage: quickstart [key=value ...]
//   e.g. quickstart model=cnn clients=16 rounds=30 target=0.5 seed=7
//   scheme=fedavg,fedca picks which schemes run (comma-separated).
//   An unknown key, a malformed value, or a count (clients, k, batch,
//   samples, test_samples, rounds) that is not an integer >= 1 exits 2
//   naming the key, before anything is printed.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/factory.hpp"
#include "fl/experiment.hpp"
#include "obs/session.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using namespace fedca;

namespace {

// `path` with ".<scheme>" inserted before its extension (appended when the
// file name has none); empty stays empty.
std::string per_scheme(const std::string& path, const std::string& scheme) {
  if (path.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool has_ext = dot != std::string::npos && dot > 0 &&
                       (slash == std::string::npos || dot > slash + 1);
  const std::size_t at = has_ext ? dot : path.size();
  return path.substr(0, at) + "." + scheme + path.substr(at);
}

// A count key: an integer >= 1.
std::size_t count(const util::Config& config, const char* key, long fallback) {
  const long value = config.get_int(key, fallback);
  if (value < 1) {
    throw util::ConfigError("config key '" + std::string(key) +
                            "' must be an integer >= 1, got " + config.get_string(key, ""));
  }
  return static_cast<std::size_t>(value);
}

nn::ModelKind model_of(const util::Config& config) {
  const std::string name = config.get_string("model", "cnn");
  try {
    return nn::parse_model_kind(name);
  } catch (const std::invalid_argument&) {
    throw util::ConfigError("config key 'model' must be cnn, lstm or wrn, got '" + name + "'");
  }
}

int run(util::Config& config) {
  fl::ExperimentOptions options;
  options.model = model_of(config);
  options.num_clients = count(config, "clients", 12);
  options.local_iterations = count(config, "k", 25);
  options.batch_size = count(config, "batch", 10);
  options.dirichlet_alpha = config.get_double("alpha", 0.1);
  options.train_samples = count(config, "samples", 1500);
  options.test_samples = count(config, "test_samples", 256);
  options.data_spec.noise_stddev =
      config.get_double("noise", options.data_spec.noise_stddev);
  options.max_rounds = count(config, "rounds", 25);
  options.target_accuracy = config.get_double("target", 0.0);
  options.optimizer.learning_rate = config.get_double("lr", 0.05);
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  // trace=/metrics=/report= (or FEDCA_TRACE/FEDCA_METRICS/FEDCA_REPORT)
  // write a Chrome-trace timeline / metrics snapshot / per-round JSONL
  // report for each scheme's run, at the given path with ".<scheme>"
  // before the extension (report=r.jsonl -> r.fedavg.jsonl, r.fedca.jsonl).
  const obs::SessionOptions outputs =
      obs::resolve_outputs(config.get_string("trace", ""), config.get_string("metrics", ""),
                           config.get_string("report", ""));
  // Profile early and often at quickstart scale so FedCA's knowledge kicks
  // in within a short demo run.
  config.set("fedca_period", config.get_string("fedca_period", "5"));
  const std::vector<std::string> scheme_names =
      bench::schemes(config, "scheme", "fedavg,fedca");

  util::print_section(std::cout, "FedCA quickstart", config.dump());

  util::Table table({"scheme", "rounds", "virtual time (s)", "final accuracy",
                     "mean round (s)", "early stops", "eager layers"});
  for (const std::string& scheme_name : scheme_names) {
    auto scheme = core::make_scheme(scheme_name, config, options.seed);
    options.trace_path = per_scheme(outputs.trace_path, scheme_name);
    options.metrics_path = per_scheme(outputs.metrics_path, scheme_name);
    options.report_path = per_scheme(outputs.report_path, scheme_name);
    const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
    table.add_row({result.scheme_name, std::to_string(result.rounds.size()),
                   util::Table::fmt(result.total_time, 1),
                   util::Table::fmt(result.final_accuracy, 3),
                   util::Table::fmt(result.mean_round_seconds, 2),
                   std::to_string(result.early_stop_iterations().size()),
                   std::to_string(result.eager_iterations(false).size())});
  }
  table.print(std::cout);

  std::cout << "\nFedCA trims straggler iterations (early stops) and overlaps\n"
               "communication of stabilized layers (eager transmissions), so its\n"
               "virtual-time-per-round is lower at comparable accuracy.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config config = bench::parse_flat_args(
      argc, argv,
      {"model", "scheme", "clients", "k", "batch", "alpha", "samples", "test_samples",
       "noise", "rounds", "target", "lr", "seed", "trace", "metrics", "report"});
  try {
    return run(config);
  } catch (const util::ConfigError& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }
}
