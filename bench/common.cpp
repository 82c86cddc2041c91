#include "bench/common.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/sampling_profiler.hpp"
#include "nn/state.hpp"
#include "sim/scenario.hpp"

namespace fedca::bench {

namespace {

// The paper benches' own keys; every other setting is a scenario key.
constexpr std::initializer_list<const char*> kBenchKeys = {
    "scale", "csv_dir", "models", "schemes", "ablation_rounds"};

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

// Throws ConfigError naming the first key of `config` that is not one of
// `keys` (nor, when `scheme_params`, a make_scheme hyperparameter).
void reject_unknown(const util::Config& config, std::initializer_list<const char*> keys,
                    bool scheme_params) {
  for (const std::string& key : config.keys()) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end() &&
        !(scheme_params && fl::known_scheme_param(key))) {
      throw util::ConfigError("unknown config key '" + key + "'" +
                              (scheme_params ? "" : " (a scenario key is section.key=value)"));
    }
  }
}

int bad_argument(int argc, char** argv, const std::exception& e) {
  std::cerr << (argc > 0 ? argv[0] : "bench") << ": " << e.what() << "\n";
  return 2;
}

std::string cell_path(nn::ModelKind kind, const util::Config& config) {
  const std::string scale = config.get_string("scale", "quick");
  if (scale != "quick" && scale != "paper") {
    throw util::ConfigError("config key 'scale' must be quick or paper, got '" + scale + "'");
  }
  std::string model = nn::model_kind_name(kind);
  for (char& c : model) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return std::string(FEDCA_SCENARIO_DIR) + (scale == "paper" ? "/paper" : "") + "/table1_" +
         model + ".scn";
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const auto eq = token.find('=');
    if (eq != std::string::npos && token.find('.') < eq) {
      args.overrides.push_back(token);
    } else if (eq == std::string::npos || eq == 0) {
      throw util::ConfigError("expected key=value argument, got: " + token);
    } else {
      args.config.set(token.substr(0, eq), token.substr(eq + 1));
    }
  }
  reject_unknown(args.config, kBenchKeys, false);
  return args;
}

int run(int argc, char** argv, int (*bench)(const Args&)) {
  try {
    return bench(parse_args(argc, argv));
  } catch (const util::ConfigError& e) {
    return bad_argument(argc, argv, e);
  } catch (const sim::scenario::ScenarioError& e) {
    return bad_argument(argc, argv, e);
  }
}

util::Config parse_flat_args(int argc, char** argv,
                             std::initializer_list<const char*> keys) {
  try {
    util::Config config = util::Config::from_args(argc, argv);
    reject_unknown(config, keys, true);
    return config;
  } catch (const util::ConfigError& e) {
    std::exit(bad_argument(argc, argv, e));
  }
}

std::vector<nn::ModelKind> models(const util::Config& config) {
  std::vector<nn::ModelKind> out;
  for (const std::string& name : split_list(config.get_string("models", "cnn,lstm,wrn"))) {
    try {
      out.push_back(nn::parse_model_kind(name));
    } catch (const std::invalid_argument&) {
      throw util::ConfigError("config key 'models': unknown model '" + name +
                              "' (expected cnn, lstm or wrn)");
    }
  }
  return out;
}

std::vector<std::string> schemes(const util::Config& config, const char* key,
                                 const char* fallback) {
  const std::vector<std::string> out = split_list(config.get_string(key, fallback));
  for (const std::string& name : out) {
    if (std::find(std::begin(fl::kSchemeNames), std::end(fl::kSchemeNames), name) ==
        std::end(fl::kSchemeNames)) {
      throw util::ConfigError("config key '" + std::string(key) + "': unknown scheme '" +
                              name + "'");
    }
  }
  return out;
}

fl::Scenario load_cell(nn::ModelKind kind, const Args& args,
                       const std::vector<std::string>& defaults,
                       const std::vector<std::string>& arm) {
  std::vector<std::string> overrides = defaults;
  overrides.insert(overrides.end(), args.overrides.begin(), args.overrides.end());
  overrides.insert(overrides.end(), arm.begin(), arm.end());
  return fl::load_scenario_file(cell_path(kind, args.config), overrides);
}

std::string describe(const Args& args) {
  std::string out = args.config.dump();
  for (const std::string& o : args.overrides) out += (out.empty() ? "" : " ") + o;
  return out;
}

void maybe_save_csv(const util::Table& table, const Args& args, const std::string& name) {
  const std::string dir = args.config.get_string("csv_dir", "");
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
