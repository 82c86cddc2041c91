// Fig. 10 — hyperparameter sensitivity of FedCA on the CNN workload:
//   (a) marginal-cost ratio beta in {0.1, 0.01, 0.001} vs FedAvg;
//   (b) eager/retransmission thresholds (T_e, T_r) in
//       {(0.95, 0.6), (0.95, 0.8), (0.85, 0.6)}.
//
// Paper shapes: beta = 0.001 behaves like the 0.01 default while
// beta = 0.1 — which over-penalizes pre-deadline computation — slows
// convergence; the threshold combinations land close together (FedCA is
// robust), with the strictest pair slightly ahead.
//
// Usage: fig10_sensitivity [scale=...] [section.key=value ...] (22 rounds by default)
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

struct Arm {
  std::string label;
  std::vector<std::string> settings;  // scheme.fedca_* overrides
};

void run_arm(const Arm& arm, const bench::Args& args, util::Table& summary,
             util::Table& curves) {
  // 8 full-horizon arms: default a tighter horizon than the to-target cap.
  const fl::Scenario cell =
      bench::load_cell(nn::ModelKind::kCnn, args, {"run.rounds=22"}, arm.settings);

  fl::ExperimentOptions options = cell.options;
  const double target = options.target_accuracy;
  options.target_accuracy = 0.0;  // run the full horizon (paper: 200 rounds)
  const util::Config scheme_config = fl::scheme_config(cell);
  auto scheme = arm.label == "FedAvg" ? core::make_scheme("fedavg", scheme_config)
                                      : core::make_scheme("fedca", scheme_config, options.seed);
  const fl::ExperimentResult result = fl::run_experiment(options, *scheme);

  double time_to_target = -1.0;
  std::vector<double> recent;
  for (const fl::EvalPoint& p : result.curve) {
    recent.push_back(p.accuracy);
    if (recent.size() > 3) recent.erase(recent.begin());
    double smoothed = 0.0;
    for (const double a : recent) smoothed += a;
    smoothed /= static_cast<double>(recent.size());
    if (smoothed >= target && time_to_target < 0.0) time_to_target = p.virtual_time;
    curves.add_row({arm.label, std::to_string(p.round_index),
                    util::Table::fmt(p.virtual_time, 1), util::Table::fmt(p.accuracy, 4)});
  }
  summary.add_row({arm.label, std::to_string(result.rounds.size()),
                   util::Table::fmt(result.total_time, 1),
                   util::Table::fmt(result.final_accuracy, 4),
                   time_to_target < 0.0 ? "not reached"
                                        : util::Table::fmt(time_to_target, 1)});
}

int bench_main(const bench::Args& args) {
  // (a) beta sweep.
  util::Table summary_a({"arm", "rounds", "total time (s)", "final accuracy",
                         "time to target (s)"});
  util::Table curves_a({"arm", "round", "virtual time (s)", "accuracy"});
  for (const Arm& arm : {Arm{"FedAvg", {}},
                         Arm{"beta=0.1", {"scheme.fedca_beta=0.1"}},
                         Arm{"beta=0.01", {"scheme.fedca_beta=0.01"}},
                         Arm{"beta=0.001", {"scheme.fedca_beta=0.001"}}}) {
    run_arm(arm, args, summary_a, curves_a);
  }
  util::print_section(std::cout, "Fig. 10a: sensitivity to marginal-cost ratio beta",
                      bench::describe(args));
  summary_a.print(std::cout);

  // (b) (T_e, T_r) sweep.
  util::Table summary_b({"arm", "rounds", "total time (s)", "final accuracy",
                         "time to target (s)"});
  util::Table curves_b({"arm", "round", "virtual time (s)", "accuracy"});
  for (const Arm& arm : {Arm{"FedAvg", {}},
                         Arm{"Te=0.95 Tr=0.6", {"scheme.fedca_te=0.95", "scheme.fedca_tr=0.6"}},
                         Arm{"Te=0.95 Tr=0.8", {"scheme.fedca_te=0.95", "scheme.fedca_tr=0.8"}},
                         Arm{"Te=0.85 Tr=0.6", {"scheme.fedca_te=0.85", "scheme.fedca_tr=0.6"}}}) {
    run_arm(arm, args, summary_b, curves_b);
  }
  util::print_section(std::cout,
                      "Fig. 10b: sensitivity to eager/retransmission thresholds");
  summary_b.print(std::cout);

  bench::maybe_save_csv(summary_a, args, "fig10a_summary");
  bench::maybe_save_csv(curves_a, args, "fig10a_curves");
  bench::maybe_save_csv(summary_b, args, "fig10b_summary");
  bench::maybe_save_csv(curves_b, args, "fig10b_curves");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run(argc, argv, bench_main); }
