// Fig. 8 — CDFs of FedCA's runtime behaviour on the CNN workload:
//   (a) the local iteration at which early stopping triggers, FedCA vs
//       FedAda (FedAda's "trigger" is its server-assigned workload cap);
//   (b) the iteration at which layers are eagerly transmitted, with and
//       without retransmission (a retransmitted layer's *effective*
//       moment is the client's last iteration).
//
// Paper shapes: FedCA stops earlier than FedAda (client-side curve
// knowledge vs server-side uniform assumption); many layers stabilize
// around mid-round; retransmission shifts part of the eager mass to the
// round end but leaves the bulk early.
//
// Usage: fig8_behavior_cdf [scale=...] [section.key=value ...] (18 rounds by default)
#include <iostream>

#include "bench/common.hpp"
#include "util/stats.hpp"

using namespace fedca;

namespace {

void print_cdf(util::Table& table, const std::string& series,
               const std::vector<double>& samples, std::size_t k) {
  if (samples.empty()) return;
  util::EmpiricalCdf cdf(samples);
  for (const auto& [x, p] : cdf.series(0.0, static_cast<double>(k), 26)) {
    table.add_row({series, util::Table::fmt(x, 1), util::Table::fmt(p, 4)});
  }
}

int bench_main(const bench::Args& args) {
  const fl::Scenario cell = bench::load_cell(nn::ModelKind::kCnn, args, {"run.rounds=18"});
  fl::ExperimentOptions options = cell.options;
  options.target_accuracy = 0.0;  // fixed horizon: compare behaviour, not TTA
  const util::Config scheme_config = fl::scheme_config(cell);

  // FedCA run (v3: full mechanism).
  auto fedca = core::make_scheme("fedca", scheme_config, options.seed);
  const fl::ExperimentResult ours = fl::run_experiment(options, *fedca);

  // FedAda run: its per-round iteration caps are the analogue of stop
  // moments. Collect iterations_run of clients whose budget was trimmed.
  auto fedada = core::make_scheme("fedada", scheme_config, options.seed);
  const fl::ExperimentResult ada = fl::run_experiment(options, *fedada);
  std::vector<double> ada_stops;
  for (const auto& round : ada.rounds) {
    for (const auto& c : round.clients) {
      if (c.planned_iterations < options.local_iterations) {
        ada_stops.push_back(static_cast<double>(c.iterations_run));
      }
    }
  }

  const std::size_t k = options.local_iterations;
  util::Table fig8a({"series", "iteration", "CDF"});
  print_cdf(fig8a, "FedCA", ours.early_stop_iterations(), k);
  print_cdf(fig8a, "FedAda", ada_stops, k);

  util::Table fig8b({"series", "iteration", "CDF"});
  print_cdf(fig8b, "FedCA w/o Retrans.", ours.eager_iterations(false), k);
  print_cdf(fig8b, "FedCA w Retrans.", ours.eager_iterations(true), k);

  util::print_section(std::cout, "Fig. 8a: CDF of early-stop iteration (CNN)",
                      bench::describe(args));
  fig8a.print(std::cout);
  util::print_section(std::cout, "Fig. 8b: CDF of eager-transmission iteration (CNN)");
  fig8b.print(std::cout);

  // Shape summary.
  const auto fedca_stops = ours.early_stop_iterations();
  const auto eager_raw = ours.eager_iterations(false);
  const auto eager_eff = ours.eager_iterations(true);
  if (!fedca_stops.empty() && !ada_stops.empty()) {
    std::cout << "\n  [shape] median stop: FedCA "
              << util::Table::fmt(util::percentile(fedca_stops, 0.5), 1) << " vs FedAda "
              << util::Table::fmt(util::percentile(ada_stops, 0.5), 1) << " (of K = "
              << k << ")\n";
  }
  if (!eager_raw.empty()) {
    std::size_t retransmitted = 0;
    for (const auto& round : ours.rounds) {
      for (const auto& c : round.clients) {
        for (const auto& e : c.eager) {
          if (e.retransmitted) ++retransmitted;
        }
      }
    }
    std::cout << "  [shape] eager transmissions: " << eager_raw.size() << " ("
              << retransmitted << " retransmitted); median trigger "
              << util::Table::fmt(util::percentile(eager_raw, 0.5), 1)
              << ", median effective "
              << util::Table::fmt(util::percentile(eager_eff, 0.5), 1) << "\n";
  }
  bench::maybe_save_csv(fig8a, args, "fig8a");
  bench::maybe_save_csv(fig8b, args, "fig8b");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run(argc, argv, bench_main); }
