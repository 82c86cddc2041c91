// Table 1 + Fig. 7 — end-to-end time-to-accuracy of FedAvg, FedProx,
// FedAda, and FedCA on the CNN, LSTM, and WRN workloads.
//
// Paper shapes to reproduce (not absolute numbers — our substrate is a
// deterministic simulator, theirs a 128-node EC2 cluster):
//   * FedCA has the lowest per-round time of all schemes on every model;
//   * FedCA mildly inflates the number of rounds but still wins total
//     time by > 15 %;
//   * FedAda sits between FedAvg/FedProx and FedCA;
//   * the WRN (largest model, heaviest compute) shows FedCA's biggest win.
//
// Prints Fig. 7's accuracy-vs-time series per scheme (CSV) and Table 1's
// three columns per (model, scheme).
//
// Each model runs its Table 1 cell (scenarios/table1_<model>.scn) once per
// scheme; the cell's [scheme] parameters reach every scheme.
//
// Usage: table1_fig7_end_to_end [scale=quick|paper] [models=cnn,lstm,wrn]
//                               [schemes=fedavg,fedprox,fedada,fedca]
//                               [section.key=value ...]
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

int bench_main(const bench::Args& args) {
  const std::vector<nn::ModelKind> models = bench::models(args.config);
  const std::vector<std::string> schemes = bench::schemes(args.config);

  util::Table table1({"model", "target", "scheme", "per-round time (s)", "# rounds",
                      "total time (s)", "reached"});
  util::Table fig7({"model", "scheme", "round", "virtual time (s)", "accuracy"});

  for (const nn::ModelKind kind : models) {
    const fl::Scenario cell = bench::load_cell(kind, args);
    double best_other = -1.0;   // best non-FedCA total time
    double fedca_time = -1.0;

    for (const std::string& scheme_name : schemes) {
      const fl::ExperimentOptions& options = cell.options;
      auto scheme = core::make_scheme(scheme_name, fl::scheme_config(cell), options.seed);
      const fl::ExperimentResult result = fl::run_experiment(options, *scheme);

      const double total =
          result.reached_target ? result.time_to_target : result.total_time;
      table1.add_row({result.model_name,
                      util::Table::fmt(options.target_accuracy, 2), result.scheme_name,
                      util::Table::fmt(result.mean_round_seconds, 2),
                      std::to_string(result.rounds.size()), util::Table::fmt(total, 1),
                      result.reached_target ? "yes" : "no(max rounds)"});
      for (const fl::EvalPoint& p : result.curve) {
        fig7.add_row({result.model_name, result.scheme_name,
                      std::to_string(p.round_index), util::Table::fmt(p.virtual_time, 1),
                      util::Table::fmt(p.accuracy, 4)});
      }
      if (scheme_name == "fedca") {
        fedca_time = total;
      } else if (result.reached_target && (best_other < 0.0 || total < best_other)) {
        best_other = total;
      }
    }
    if (fedca_time > 0.0 && best_other > 0.0) {
      std::cout << "  [shape] " << nn::model_kind_name(kind) << ": FedCA total "
                << util::Table::fmt(fedca_time, 1) << " s vs best baseline "
                << util::Table::fmt(best_other, 1) << " s  ("
                << util::Table::fmt(100.0 * (best_other - fedca_time) / best_other, 1)
                << "% faster)\n";
    }
  }

  util::print_section(std::cout, "Table 1: time to reach the target accuracy",
                      bench::describe(args));
  table1.print(std::cout);
  bench::maybe_save_csv(table1, args, "table1");
  bench::maybe_save_csv(fig7, args, "fig7_curves");
  std::cout << "\nFig. 7 accuracy-vs-time series: " << fig7.row_count()
            << " points (use csv_dir=... to export)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run(argc, argv, bench_main); }
