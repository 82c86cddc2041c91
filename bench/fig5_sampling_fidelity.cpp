// Fig. 5 — intra-layer sampling fidelity: progress curves profiled from
// min(50 %, 100) sampled scalars per layer vs from the full layer.
//
// Paper shape: the two curves coincide across models, stages, and layer
// types, which is what lets FedCA cut profiling memory from ~14 GB to a
// few MB. We exploit run determinism: the same seed yields the identical
// training trajectory, so a full-profiling run and a sampled-profiling run
// measure the same round and their curves are directly comparable.
//
// Usage: fig5_sampling_fidelity [scale=...] [section.key=value ...] (8 rounds by default)
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

void run_model(nn::ModelKind kind, const bench::Args& args) {
  fl::ExperimentOptions options =
      bench::load_cell(kind, args, {"run.rounds=8"}).options;
  options.target_accuracy = 0.0;

  // Pass 1: exact curves. Pass 2: the paper's sampling budget.
  bench::RecordingScheme full(1'000'000, options.seed);
  fl::run_experiment(options, full);
  bench::RecordingScheme sampled(100, options.seed);
  fl::run_experiment(options, sampled);

  util::Table table({"model", "round", "layer", "iteration", "P(full)", "P(sampled)"});
  util::Table summary({"model", "round", "layer", "max |P_full - P_sampled|"});

  const std::size_t early_round = 1;
  const std::size_t late_round = options.max_rounds - 1;
  for (const std::size_t round : {early_round, late_round}) {
    const bench::RoundCurves* f = nullptr;
    const bench::RoundCurves* s = nullptr;
    for (const auto& h : full.history(0)) {
      if (h.round_index == round) f = &h;
    }
    for (const auto& h : sampled.history(0)) {
      if (h.round_index == round) s = &h;
    }
    if (f == nullptr || s == nullptr) continue;
    // Summarize deviation for every layer; dump the worst-deviating layer
    // in detail (sampling fidelity is hardest there).
    double worst_overall = 0.0;
    std::size_t worst_layer = 0;
    std::vector<double> per_layer_dev(f->layers.size(), 0.0);
    for (std::size_t l = 0; l < f->layers.size(); ++l) {
      const std::size_t n = std::min(f->layers[l].size(), s->layers[l].size());
      for (std::size_t it = 0; it < n; ++it) {
        per_layer_dev[l] =
            std::max(per_layer_dev[l], std::abs(f->layers[l][it] - s->layers[l][it]));
      }
      summary.add_row({nn::model_kind_name(kind), std::to_string(round),
                       f->layer_names[l], util::Table::fmt(per_layer_dev[l], 4)});
      if (per_layer_dev[l] > worst_overall) {
        worst_overall = per_layer_dev[l];
        worst_layer = l;
      }
    }
    const std::size_t n =
        std::min(f->layers[worst_layer].size(), s->layers[worst_layer].size());
    for (std::size_t it = 0; it < n; ++it) {
      table.add_row({nn::model_kind_name(kind), std::to_string(round),
                     f->layer_names[worst_layer], std::to_string(it + 1),
                     util::Table::fmt(f->layers[worst_layer][it], 4),
                     util::Table::fmt(s->layers[worst_layer][it], 4)});
    }
    std::cout << "  [shape] round " << round << ": worst per-layer deviation "
              << util::Table::fmt(worst_overall, 4) << "\n";
  }
  util::print_section(std::cout, "Fig. 5 (" + nn::model_kind_name(kind) +
                                     "): sampled vs full profiling",
                      bench::describe(args));
  summary.print(std::cout);
  bench::maybe_save_csv(table, args, "fig5_" + nn::model_kind_name(kind));
  bench::maybe_save_csv(summary, args, "fig5_summary_" + nn::model_kind_name(kind));
}

int bench_main(const bench::Args& args) {
  for (const nn::ModelKind kind :
       {nn::ModelKind::kCnn, nn::ModelKind::kLstm, nn::ModelKind::kWrn}) {
    run_model(kind, args);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run(argc, argv, bench_main); }
