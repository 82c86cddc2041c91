// Fig. 2 — statistical-progress curves of two clients at an early and a
// late training stage, for CNN, LSTM, and WRN.
//
// Paper shape to reproduce: every curve rises sharply over the first
// iterations and flattens (diminishing marginal benefit); the two clients'
// curves do not overlap (cross-client statistical heterogeneity); early-
// and late-stage curves differ (temporal heterogeneity).
//
// Usage: fig2_progress_clients [scale=...] [section.key=value ...] (10 rounds by default)
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

void run_model(nn::ModelKind kind, const bench::Args& args) {
  fl::ExperimentOptions options =
      bench::load_cell(kind, args, {"run.rounds=10"}).options;
  options.target_accuracy = 0.0;  // fixed number of rounds
  // Fig. 2 measures statistics, not system efficiency: run with full
  // profiling attached to plain FedAvg behaviour.
  bench::RecordingScheme scheme(1'000'000, options.seed);
  fl::run_experiment(options, scheme);

  const std::size_t early_round = std::min<std::size_t>(1, options.max_rounds - 1);
  const std::size_t late_round = options.max_rounds - 1;
  const std::size_t clients[2] = {0, 1};

  util::Table table({"model", "stage", "client", "iteration", "progress"});
  for (const std::size_t round : {early_round, late_round}) {
    const std::string stage =
        (round == early_round) ? "early(round " + std::to_string(round) + ")"
                               : "late(round " + std::to_string(round) + ")";
    for (const std::size_t client : clients) {
      const auto& history = scheme.history(client);
      const bench::RoundCurves* curves = nullptr;
      for (const auto& h : history) {
        if (h.round_index == round) curves = &h;
      }
      if (curves == nullptr) continue;
      for (std::size_t it = 0; it < curves->model.size(); ++it) {
        table.add_row({nn::model_kind_name(kind), stage, std::to_string(client),
                       std::to_string(it + 1), util::Table::fmt(curves->model[it], 4)});
      }
    }
  }
  util::print_section(std::cout, "Fig. 2 (" + nn::model_kind_name(kind) +
                                     "): whole-model progress curves, 2 clients x "
                                     "{early, late}",
                      bench::describe(args));
  table.print(std::cout);
  bench::maybe_save_csv(table, args, "fig2_" + nn::model_kind_name(kind));

  // Shape checks mirroring the paper's observations.
  for (const std::size_t client : clients) {
    const auto& history = scheme.history(client);
    for (const auto& h : history) {
      if (h.round_index != early_round && h.round_index != late_round) continue;
      const auto& curve = h.model;
      if (curve.empty()) continue;
      const std::size_t k = curve.size();
      const double head = curve[k / 4];            // P at 25 % of the round
      std::cout << "  [shape] client " << client << " round " << h.round_index
                << ": P@25%=" << util::Table::fmt(head, 3)
                << " P@100%=" << util::Table::fmt(curve.back(), 3)
                << (head > 0.5 ? "  (diminishing-marginal-benefit: yes)" : "") << "\n";
    }
  }
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
