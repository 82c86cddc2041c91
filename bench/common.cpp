#include "bench/common.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/sampling_profiler.hpp"
#include "fl/scenario.hpp"
#include "nn/state.hpp"

namespace fedca::bench {

namespace {

// The workload sizes workload_options reads (and the benches' own
// rounds=): each must be an integer >= 1.
constexpr const char* kCountKeys[] = {"clients", "k", "batch", "samples", "test_samples",
                                      "rounds"};

// Every key the paper benches, obs_harness, quickstart and workload_options
// read, apart from core::make_scheme's hyperparameters
// (fl::known_scheme_param). Any other key is a typo that would otherwise be
// silently ignored.
constexpr const char* kBenchKeys[] = {
    // parse_config, workload_options, maybe_save_csv
    "scale", "csv_dir", "seed", "clients", "k", "batch", "samples", "test_samples",
    "rounds", "alpha", "noise", "lr", "wd", "collect_fraction", "target", "dynamicity",
    "bandwidth_mbps", "trace", "metrics",
    // the benches' own keys
    "models", "schemes", "ablation_rounds", "async_mix", "async_staleness_power",
    // obs_harness
    "mode", "warmup", "workers", "scenario", "out", "updates",
    // quickstart
    "model", "scheme", "report"};

bool known_key(const std::string& key) {
  for (const char* k : kBenchKeys) {
    if (key == k) return true;
  }
  return fl::known_scheme_param(key);
}

std::string scale_of(const util::Config& config) {
  const std::string scale = config.get_string("scale", "quick");
  if (scale != "quick" && scale != "paper") {
    throw util::ConfigError("config key 'scale' must be quick or paper, got '" + scale + "'");
  }
  return scale;
}

std::size_t count_of(const util::Config& config, const std::string& key, std::size_t fallback) {
  const long value = config.get_int(key, static_cast<long>(fallback));
  if (value < 1) {
    throw util::ConfigError("config key '" + key + "' must be an integer >= 1, got " +
                            config.get_string(key, ""));
  }
  return static_cast<std::size_t>(value);
}

// Throws ConfigError naming the key when `config` holds a key no program
// here reads, a count below 1 or a bad scale. Reads a copy, so dump() still
// lists only the keys a program reads.
void check_keys(util::Config config) {
  for (const std::string& key : config.keys()) {
    if (!known_key(key)) throw util::ConfigError("unknown config key '" + key + "'");
  }
  scale_of(config);
  for (const char* key : kCountKeys) {
    if (config.contains(key)) count_of(config, key, 1);
  }
}

[[noreturn]] void exit_bad_config(int argc, char** argv, const util::ConfigError& e) {
  std::cerr << (argc > 0 ? argv[0] : "bench") << ": " << e.what() << "\n";
  std::exit(2);
}

}  // namespace

util::Config parse_args(int argc, char** argv) {
  try {
    util::Config config = util::Config::from_args(argc, argv);
    check_keys(config);
    return config;
  } catch (const util::ConfigError& e) {
    exit_bad_config(argc, argv, e);
  }
}

util::Config parse_config(int argc, char** argv) {
  const util::Config cli = parse_args(argc, argv);
  util::Config env;
  // trace=/metrics= have no env twin here: make_setup falls back to
  // FEDCA_TRACE/FEDCA_METRICS (obs::read_env) for paths left empty.
  env.load_env({"scale", "csv_dir", "seed", "clients", "k", "rounds"});
  env.overlay(cli);  // CLI wins over environment
  try {
    check_keys(env);
  } catch (const util::ConfigError& e) {
    exit_bad_config(argc, argv, e);
  }
  // Quick-scale runs last tens of rounds, so the paper's 1-anchor-in-10
  // profiling would leave FedCA stale for most of them; profile 1-in-5 by
  // default (still amortized, still a priori).
  if (env.get_string("scale", "quick") != "paper" && !env.contains("fedca_period")) {
    env.set("fedca_period", "5");
  }
  return env;
}

double paper_target_accuracy(nn::ModelKind kind) {
  switch (kind) {
    case nn::ModelKind::kCnn: return 0.55;
    case nn::ModelKind::kLstm: return 0.85;
    case nn::ModelKind::kWrn: return 0.55;
  }
  return 0.55;
}

namespace {

struct WorkloadDefaults {
  double learning_rate;
  double weight_decay;
  double noise;
  double target;
};

// Quick-scale defaults per workload. Noise levels are tuned so the target
// accuracy is reached after a few dozen federated rounds under
// Dirichlet(0.1) — mirroring the paper's "near-optimal accuracy" regime
// where the last stretch of training is slow.
WorkloadDefaults quick_defaults(nn::ModelKind kind) {
  switch (kind) {
    // Paper lrs: 0.01 / 0.05 / 0.1; quick-scale models are smaller so the
    // CNN takes a slightly hotter lr.
    case nn::ModelKind::kCnn: return {0.05, 0.01, 1.6, 0.55};
    case nn::ModelKind::kLstm: return {0.10, 0.01, 1.0, 0.85};
    case nn::ModelKind::kWrn: return {0.05, 0.0005, 1.4, 0.55};
  }
  return {0.05, 0.0, 1.0, 0.5};
}

}  // namespace

fl::ExperimentOptions workload_options(nn::ModelKind kind, const util::Config& config) {
  const std::string scale = scale_of(config);
  const WorkloadDefaults defaults = quick_defaults(kind);

  fl::ExperimentOptions options;
  options.model = kind;
  if (scale == "paper") {
    options.num_clients = 128;
    options.local_iterations = 125;
    options.batch_size = 50;
    options.train_samples = 60'000;
    options.test_samples = 2'000;
    options.max_rounds = 400;
  } else {
    // Geometry tuned so clients run ~5 local epochs per round — the deep
    // local-training regime (paper: ~16 epochs/round) that produces the
    // strongly concave progress curves FedCA exploits.
    options.num_clients = 10;
    options.local_iterations = 30;
    options.batch_size = 10;
    options.train_samples = 600;
    options.test_samples = 320;
    options.max_rounds = 50;
  }

  options.num_clients = count_of(config, "clients", options.num_clients);
  options.local_iterations = count_of(config, "k", options.local_iterations);
  options.batch_size = count_of(config, "batch", options.batch_size);
  options.train_samples = count_of(config, "samples", options.train_samples);
  options.test_samples = count_of(config, "test_samples", options.test_samples);
  options.max_rounds = count_of(config, "rounds", options.max_rounds);
  options.dirichlet_alpha = config.get_double("alpha", 0.1);
  options.data_spec.noise_stddev = config.get_double("noise", defaults.noise);
  options.optimizer.learning_rate = config.get_double("lr", defaults.learning_rate);
  options.optimizer.weight_decay = config.get_double("wd", defaults.weight_decay);
  options.collect_fraction = config.get_double("collect_fraction", 0.9);
  options.target_accuracy = config.get_double("target", defaults.target);
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  options.cluster.dynamicity.enabled = config.get_bool("dynamicity", true);
  options.cluster.heterogeneity.bandwidth_mbps = config.get_double("bandwidth_mbps", 13.7);
  // trace=/metrics= (or FEDCA_TRACE/FEDCA_METRICS) arm the observability
  // outputs; make_setup resolves the env fallback itself, so only the
  // explicit config keys are threaded here.
  options.trace_path = config.get_string("trace", "");
  options.metrics_path = config.get_string("metrics", "");
  return options;
}

void maybe_save_csv(const util::Table& table, const util::Config& config,
                    const std::string& name) {
  const std::string dir = config.get_string("csv_dir", "");
  if (dir.empty()) return;
  table.save_csv(dir + "/" + name + ".csv");
}

// --- RecordingScheme ---

class RecordingScheme::RecordingPolicy : public fl::ClientPolicy {
 public:
  RecordingPolicy(std::size_t layer_cap, util::Rng rng)
      : profiler_(make_options(layer_cap), rng) {}

  void on_round_start(const fl::RoundInfo& round, const nn::ModelState& global) override {
    round_index_ = round.round_index;
    layer_names_ = global.names;
    profiler_.begin_round(round.round_index, global);
  }

  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    profiler_.record_iteration(*view.model);
    return {};
  }

  void on_round_end(const fl::RoundInfo&) override {
    profiler_.finish_round();
    RoundCurves curves;
    curves.round_index = round_index_;
    curves.layer_names = layer_names_;
    curves.layers = profiler_.layer_curves();
    curves.model = profiler_.model_curve();
    history_.push_back(std::move(curves));
  }

  const std::vector<RoundCurves>& history() const { return history_; }

 private:
  static core::ProfilerOptions make_options(std::size_t layer_cap) {
    core::ProfilerOptions o;
    o.period = 1;             // every round is an anchor
    o.layer_fraction = 1.0;   // exact curves (up to the cap)
    o.layer_cap = layer_cap;
    return o;
  }

  core::SamplingProfiler profiler_;
  std::size_t round_index_ = 0;
  std::vector<std::string> layer_names_;
  std::vector<RoundCurves> history_;
};

RecordingScheme::RecordingScheme(std::size_t layer_cap, std::uint64_t seed)
    : layer_cap_(layer_cap), seed_(seed) {}

RecordingScheme::~RecordingScheme() = default;

void RecordingScheme::bind(std::size_t num_clients, std::size_t nominal_iterations) {
  Scheme::bind(num_clients, nominal_iterations);
  util::Rng root(seed_);
  policies_.clear();
  policies_.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    policies_.push_back(std::make_unique<RecordingPolicy>(layer_cap_, root.fork(c)));
  }
}

fl::ClientPolicy& RecordingScheme::client_policy(std::size_t client_id) {
  return *policies_.at(client_id);
}

const std::vector<RoundCurves>& RecordingScheme::history(std::size_t client_id) const {
  return policies_.at(client_id)->history();
}

}  // namespace fedca::bench
