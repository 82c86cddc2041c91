// Fig. 3 — per-layer statistical-progress curves at early and late stages.
//
// Paper shape: different layers of one model evolve at visibly different
// paces; some layers approach P ~ 1 long before the round ends (the
// early-converged layers eager transmission exploits), e.g. CNN's
// "conv2.weight" at a late round or LSTM's "rnn.weight_hh_l0" early on.
//
// Usage: fig3_progress_layers [scale=...] [section.key=value ...] (10 rounds by default)
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

// The two layers per model the paper's Fig. 3 plots.
std::pair<std::string, std::string> figure_layers(nn::ModelKind kind) {
  switch (kind) {
    case nn::ModelKind::kCnn: return {"fc2.weight", "conv2.weight"};
    case nn::ModelKind::kLstm: return {"rnn.weight_hh_l0", "rnn.bias_ih_l0"};
    case nn::ModelKind::kWrn:
      return {"conv3.0.residual.0.bias", "conv4.0.residual.3.weight"};
  }
  return {"", ""};
}

void run_model(nn::ModelKind kind, const bench::Args& args) {
  fl::ExperimentOptions options =
      bench::load_cell(kind, args, {"run.rounds=10"}).options;
  options.target_accuracy = 0.0;
  bench::RecordingScheme scheme(1'000'000, options.seed);
  fl::run_experiment(options, scheme);

  const std::size_t early_round = 1;
  const std::size_t late_round = options.max_rounds - 1;
  const auto [layer_a, layer_b] = figure_layers(kind);

  util::Table table({"model", "stage", "layer", "iteration", "progress"});
  double spread_sum = 0.0;
  std::size_t spread_count = 0;
  for (const std::size_t round : {early_round, late_round}) {
    const std::string stage = (round == early_round) ? "early" : "late";
    for (const auto& h : scheme.history(0)) {
      if (h.round_index != round) continue;
      for (const std::string& layer : {layer_a, layer_b}) {
        std::size_t idx = h.layer_names.size();
        for (std::size_t l = 0; l < h.layer_names.size(); ++l) {
          if (h.layer_names[l] == layer) idx = l;
        }
        if (idx == h.layer_names.size()) continue;
        const auto& curve = h.layers[idx];
        for (std::size_t it = 0; it < curve.size(); ++it) {
          table.add_row({nn::model_kind_name(kind), stage, layer, std::to_string(it + 1),
                         util::Table::fmt(curve[it], 4)});
        }
      }
      // Cross-layer heterogeneity: mean |P_a - P_b| over the round.
      std::size_t ia = h.layer_names.size(), ib = h.layer_names.size();
      for (std::size_t l = 0; l < h.layer_names.size(); ++l) {
        if (h.layer_names[l] == layer_a) ia = l;
        if (h.layer_names[l] == layer_b) ib = l;
      }
      if (ia < h.layers.size() && ib < h.layers.size()) {
        for (std::size_t it = 0; it < h.layers[ia].size(); ++it) {
          spread_sum += std::abs(h.layers[ia][it] - h.layers[ib][it]);
          ++spread_count;
        }
      }
    }
  }
  util::print_section(std::cout, "Fig. 3 (" + nn::model_kind_name(kind) +
                                     "): per-layer progress curves (" + layer_a +
                                     " vs " + layer_b + ")",
                      bench::describe(args));
  table.print(std::cout);
  if (spread_count > 0) {
    std::cout << "  [shape] mean |P_" << layer_a << " - P_" << layer_b
              << "| = " << util::Table::fmt(spread_sum / spread_count, 4)
              << "  (cross-layer heterogeneity)\n";
  }
  bench::maybe_save_csv(table, args, "fig3_" + nn::model_kind_name(kind));
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
