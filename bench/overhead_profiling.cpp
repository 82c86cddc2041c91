// Sec. 5.5 — profiling overhead accounting, plus an anchor-period
// memory/fidelity ablation (DESIGN.md Sec. 5).
//
// Paper numbers at their scale: 618 / 905 / 9974 sampled parameters for
// CNN / LSTM / WRN, i.e. 0.24 / 0.34 / 3.8 MB of per-round profiling
// memory over K = 125 iterations — negligible vs model sizes (WRN:
// 139.4 MB). We report the same accounting for our instantiated models
// (and the naive full-profiling cost they replace) at K = 125, and size
// the period ablation at the cell's own K (`training.local_iterations`:
// 30 at quick scale), the K of the run whose curve staleness it measures.
//
// Usage: overhead_profiling [ablation_rounds=N] [section.key=value ...]
//   observability.metrics=PATH saves the Sec. 5.5 metrics snapshot.
#include <iostream>
#include <stdexcept>

#include "bench/common.hpp"
#include "core/sampling_profiler.hpp"
#include "nn/state.hpp"
#include "obs/metrics.hpp"

using namespace fedca;

namespace {

std::string mb(double bytes) { return util::Table::fmt(bytes / (1024.0 * 1024.0), 3); }

double lookup(const std::vector<obs::MetricRow>& rows, const std::string& name) {
  for (const obs::MetricRow& row : rows) {
    if (row.name == name) return row.value;
  }
  throw std::runtime_error("metric not published: " + name);
}

int bench_main(const bench::Args& args) {
  const std::size_t paper_k = 125;
  fl::ExperimentOptions options = bench::load_cell(nn::ModelKind::kCnn, args).options;
  const std::size_t cell_k = options.local_iterations;

  // The Sec. 5.5 accounting is published through a metrics registry —
  // the exporter every instrumented run writes through — and the table
  // below is rendered from its snapshot, not from values recomputed
  // inline. observability.metrics= additionally saves the snapshot.
  obs::MetricsRegistry registry;

  std::vector<std::string> model_names;
  for (const nn::ModelKind kind :
       {nn::ModelKind::kCnn, nn::ModelKind::kLstm, nn::ModelKind::kWrn}) {
    util::Rng rng(1);
    nn::Classifier model = nn::build_model(kind, rng);
    nn::ModelState state = model.state();

    core::SamplingProfiler profiler(core::ProfilerOptions{}, util::Rng(2));
    profiler.begin_round(0, state);
    profiler.record_iteration(model.backbone());
    profiler.finish_round();

    const std::string& name = model.info().name;
    model_names.push_back(name);
    const std::string prefix = "overhead." + name + ".";
    registry.gauge(prefix + "layers").set(static_cast<double>(state.layer_count()));
    registry.gauge(prefix + "model_params").set(static_cast<double>(state.numel()));
    registry.gauge(prefix + "sampled_params")
        .set(static_cast<double>(profiler.sampled_param_count()));
    registry.gauge(prefix + "profiling_bytes_k125")
        .set(static_cast<double>(profiler.profiling_bytes(paper_k)));
    registry.gauge(prefix + "naive_bytes_k125")
        .set(static_cast<double>(state.numel()) * 4.0 * static_cast<double>(paper_k));
    registry.gauge(prefix + "wire_bytes").set(model.info().simulated_model_bytes());
    // Per-layer sample budget (the min(50 %, 100) rule): 4 bytes per
    // sampled scalar per iteration, summarized as a distribution.
    for (const std::size_t sampled : profiler.sampled_per_layer()) {
      registry.histogram(prefix + "layer_sampled_bytes", 0.0, 400.0, 40)
          .record(static_cast<double>(sampled) * 4.0);
    }
  }

  const std::vector<obs::MetricRow> rows = registry.snapshot();
  util::Table table({"model", "layers", "model params", "sampled params",
                     "profiling MB (K=125)", "naive full-profiling MB (K=125)",
                     "model wire MB (paper scale)"});
  for (const std::string& name : model_names) {
    const std::string prefix = "overhead." + name + ".";
    table.add_row({name,
                   std::to_string(static_cast<std::size_t>(lookup(rows, prefix + "layers"))),
                   std::to_string(static_cast<std::size_t>(lookup(rows, prefix + "model_params"))),
                   std::to_string(static_cast<std::size_t>(lookup(rows, prefix + "sampled_params"))),
                   mb(lookup(rows, prefix + "profiling_bytes_k125")),
                   mb(lookup(rows, prefix + "naive_bytes_k125")),
                   mb(lookup(rows, prefix + "wire_bytes"))});
  }
  util::print_section(std::cout, "Sec. 5.5: periodical-sampling memory overhead",
                      bench::describe(args));
  table.print(std::cout);
  std::cout << "  [paper] reported sampled params: CNN 618, LSTM 905, WRN 9974 -> "
               "0.24 / 0.34 / 3.8 MB; WRN full profiling would need ~14 GB.\n";

  // Anchor-period ablation: memory is amortized over `period` rounds;
  // longer periods also stale the curves. We quantify staleness as the
  // max deviation between the anchor round's curve and the curve of the
  // last round the anchor serves.
  util::Table ablation({"period", "amortized profiling MB/round (K=" +
                                      std::to_string(cell_k) + ")",
                        "curve staleness (max |dP|)"});
  options.target_accuracy = 0.0;
  // observability.metrics= names the Sec. 5.5 snapshot above, not this
  // run's metrics (FEDCA_METRICS still arms the run's own).
  const std::string metrics_path = options.metrics_path;
  options.metrics_path.clear();
  options.max_rounds = static_cast<std::size_t>(args.config.get_int("ablation_rounds", 21));
  bench::RecordingScheme recorder(100, options.seed);
  fl::run_experiment(options, recorder);
  const auto& history = recorder.history(0);

  util::Rng rng(1);
  nn::Classifier cnn = nn::build_model(nn::ModelKind::kCnn, rng);
  core::SamplingProfiler sizer(core::ProfilerOptions{}, util::Rng(2));
  nn::ModelState state = cnn.state();
  sizer.begin_round(0, state);
  sizer.record_iteration(cnn.backbone());
  sizer.finish_round();
  const double per_round_bytes = static_cast<double>(sizer.profiling_bytes(cell_k));

  for (const std::size_t period : {1u, 5u, 10u, 20u}) {
    double staleness = 0.0;
    for (std::size_t anchor = 0; anchor + period < history.size(); anchor += period) {
      const auto& a = history[anchor].model;
      const auto& b = history[anchor + period - 1].model;
      const std::size_t n = std::min(a.size(), b.size());
      for (std::size_t it = 0; it < n; ++it) {
        staleness = std::max(staleness, std::abs(a[it] - b[it]));
      }
    }
    ablation.add_row({std::to_string(period),
                      mb(per_round_bytes / static_cast<double>(period)),
                      util::Table::fmt(staleness, 4)});
  }
  util::print_section(std::cout,
                      "Ablation: profiling period vs memory and curve staleness (CNN)");
  ablation.print(std::cout);

  bench::maybe_save_csv(table, args, "overhead_profiling");
  bench::maybe_save_csv(ablation, args, "overhead_period_ablation");
  if (!metrics_path.empty()) registry.save(metrics_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run(argc, argv, bench_main); }
