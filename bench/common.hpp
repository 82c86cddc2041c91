// Shared plumbing for the experiment benches (one binary per paper
// table/figure).
//
// Every bench accepts key=value CLI overrides plus the FEDCA_SCALE
// environment variable / `scale=` option:
//   * "quick" (default): laptop-scale geometry (a dozen clients, tens of
//     local iterations) tuned so each bench finishes in minutes on one
//     core while preserving the paper's qualitative shapes;
//   * "paper": the paper's Sec. 5.1 geometry (128 clients, K = 125,
//     batch 50) — hours of virtual AND real time; use selectively.
// Results print as aligned tables on stdout; `csv_dir=` additionally
// saves CSVs for plotting.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/progress.hpp"
#include "fl/experiment.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace fedca::bench {

// Parses argv and FEDCA_* environment keys into a Config. An unknown key,
// a count below 1 or a bad scale exits 2 with a diagnostic naming the key.
util::Config parse_config(int argc, char** argv);
// The same for argv alone, for a program that reads no FEDCA_* size.
util::Config parse_args(int argc, char** argv);

// Builds the model-specific experiment options at the requested scale,
// applying any CLI overrides (clients, k, batch, rounds, target, lr, wd,
// noise, samples, seed, dynamicity, alpha, ...).
fl::ExperimentOptions workload_options(nn::ModelKind kind, const util::Config& config);

// Paper-reported target accuracy per model (Table 1): 0.55 / 0.85 / 0.55.
double paper_target_accuracy(nn::ModelKind kind);

// Saves `table` into <csv_dir>/<name>.csv when csv_dir is configured.
void maybe_save_csv(const util::Table& table, const util::Config& config,
                    const std::string& name);

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
