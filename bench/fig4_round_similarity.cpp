// Fig. 4 — progress-curve similarity across consecutive rounds.
//
// Paper shape: the whole-model curves of five consecutive rounds nearly
// coincide, both early (rounds 10-14) and late (196-200). This similarity
// is what justifies FedCA's periodical profiling: an anchor round's curve
// remains valid for the rounds that follow.
//
// We print the five curves per stage and a quantitative similarity
// summary: max pointwise deviation of each round's curve from the stage's
// first (anchor) curve.
//
// Usage: fig4_round_similarity [scale=...] [section.key=value ...] (12 rounds by default)
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

void run_model(nn::ModelKind kind, const bench::Args& args) {
  fl::ExperimentOptions options =
      bench::load_cell(kind, args, {"run.rounds=12"}).options;
  options.target_accuracy = 0.0;
  // Two windows of five rounds.
  options.max_rounds = std::max<std::size_t>(10, options.max_rounds);
  bench::RecordingScheme scheme(1'000'000, options.seed);
  fl::run_experiment(options, scheme);

  const std::size_t window = 5;
  const std::size_t early_start = 1;
  const std::size_t late_start = options.max_rounds - window;
  const auto& history = scheme.history(0);

  util::Table table({"model", "stage", "round", "iteration", "progress"});
  util::Table summary({"model", "stage", "anchor", "round", "max |dP|"});
  for (const std::size_t start : {early_start, late_start}) {
    const std::string stage = (start == early_start) ? "early" : "late";
    const core::ProgressCurve* anchor = nullptr;
    for (std::size_t round = start; round < start + window; ++round) {
      const bench::RoundCurves* curves = nullptr;
      for (const auto& h : history) {
        if (h.round_index == round) curves = &h;
      }
      if (curves == nullptr) continue;
      for (std::size_t it = 0; it < curves->model.size(); ++it) {
        table.add_row({nn::model_kind_name(kind), stage, std::to_string(round),
                       std::to_string(it + 1), util::Table::fmt(curves->model[it], 4)});
      }
      if (anchor == nullptr) {
        anchor = &curves->model;
        continue;
      }
      double max_dev = 0.0;
      const std::size_t n = std::min(anchor->size(), curves->model.size());
      for (std::size_t it = 0; it < n; ++it) {
        max_dev = std::max(max_dev, std::abs((*anchor)[it] - curves->model[it]));
      }
      summary.add_row({nn::model_kind_name(kind), stage, std::to_string(start),
                       std::to_string(round), util::Table::fmt(max_dev, 4)});
    }
  }
  util::print_section(std::cout, "Fig. 4 (" + nn::model_kind_name(kind) +
                                     "): curve similarity across " +
                                     std::to_string(window) + " consecutive rounds",
                      bench::describe(args));
  summary.print(std::cout);
  bench::maybe_save_csv(table, args, "fig4_" + nn::model_kind_name(kind));
  bench::maybe_save_csv(summary, args,
                        "fig4_summary_" + nn::model_kind_name(kind));
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
