// Shared plumbing for the paper benches (one binary per paper
// table/figure). Each runs the committed Table 1 cells,
// scenarios/table1_<model>.scn: laptop-scale geometry, minutes on one
// core, the paper's qualitative shapes. scale=paper loads their
// scenarios/paper/ siblings, the paper's Sec. 5.1 geometry (128 clients,
// K = 125, batch 50): hours. A `section.key=value` argument overrides a
// scenario key (data.clients=7, training.lr=0.1, scheme.fedca_beta=0.1,
// run.workers=8) after the bench's own defaults, checked like a file line.
// The benches' own keys: scale=, models=, schemes=, ablation_rounds= and
// csv_dir= (save CSVs there). Tables print on stdout.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/progress.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace fedca::bench {

// A paper bench's command line.
struct Args {
  util::Config config;                 // the bench's own keys
  std::vector<std::string> overrides;  // section.key=value, in order
};

// Splits argv into the bench's own keys and the overrides. Throws
// util::ConfigError naming a key no bench reads.
Args parse_args(int argc, char** argv);

// Runs `bench` on the parsed argv. A ConfigError or ScenarioError (a bad
// key or value) returns 2 with its diagnostic on stderr.
int run(int argc, char** argv, int (*bench)(const Args&));

// For quickstart and obs_harness, which keep flat keys: parses key=value
// arguments, each one of `keys` or a make_scheme hyperparameter. Any
// other key exits 2 naming it.
util::Config parse_flat_args(int argc, char** argv,
                             std::initializer_list<const char*> keys);

// The models= list and a scheme list (schemes= by default). Throws
// ConfigError naming the key on an unknown model or scheme; a bench reads
// them before it prints anything.
std::vector<nn::ModelKind> models(const util::Config& config);
std::vector<std::string> schemes(const util::Config& config, const char* key = "schemes",
                                 const char* fallback = "fedavg,fedprox,fedada,fedca");

// The Table 1 cell of `kind` at the command line's scale, overridden by
// `defaults`, then the command line, then `arm` (what an arm of a sweep
// fixes). Throws ConfigError on a bad scale= and ScenarioError naming a
// bad key; every bench loads a cell before it prints anything.
fl::Scenario load_cell(nn::ModelKind kind, const Args& args,
                       const std::vector<std::string>& defaults = {},
                       const std::vector<std::string>& arm = {});

// A section header's settings line: the bench keys read, then overrides.
std::string describe(const Args& args);

// Saves `table` into <csv_dir>/<name>.csv when csv_dir is configured.
void maybe_save_csv(const util::Table& table, const Args& args, const std::string& name);

// Build provenance stamped into every machine-readable bench output:
// "release" when the includer was compiled with NDEBUG (Release /
// RelWithDebInfo), "debug" otherwise. The BENCH_*.json runners refuse to
// overwrite checked-in numbers from a debug build (exit 2).
inline const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

// Exact statistical-progress curves of one profiled round.
struct RoundCurves {
  std::size_t round_index = 0;
  std::vector<std::string> layer_names;
  std::vector<core::ProgressCurve> layers;
  core::ProgressCurve model;
};

// A scheme that behaves exactly like FedAvg but profiles every client's
// every round (full per-layer sampling up to `layer_cap` scalars), so the
// motivation benches (Figs. 2-5) can read exact progress curves.
class RecordingScheme : public fl::Scheme {
 public:
  RecordingScheme(std::size_t layer_cap, std::uint64_t seed);
  ~RecordingScheme() override;

  std::string name() const override { return "Recording"; }
  void bind(std::size_t num_clients, std::size_t nominal_iterations) override;
  fl::ClientPolicy& client_policy(std::size_t client_id) override;

  // All rounds profiled so far for `client_id`, in order.
  const std::vector<RoundCurves>& history(std::size_t client_id) const;

 private:
  class RecordingPolicy;
  std::size_t layer_cap_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<RecordingPolicy>> policies_;
};

}  // namespace fedca::bench
