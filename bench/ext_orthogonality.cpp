// Extension bench (beyond the paper's figures): orthogonal mechanisms.
//
//   (a) Compression orthogonality — the paper's Secs. 2.2/6 position
//       QSGD-style quantization and top-k sparsification as orthogonal to
//       FedCA. We verify composability: FedAvg / FedAvg+qsgd / FedCA /
//       FedCA+qsgd / FedCA+topk on the CNN workload, reporting bytes on
//       the wire, time, and accuracy.
//   (b) Future-work extension — intra-round adaptive local learning rate
//       (FedCA+lr) vs plain FedCA.
//
// Usage: ext_orthogonality [scale=...] [section.key=value ...] (16 rounds by default)
#include <iostream>

#include "bench/common.hpp"

using namespace fedca;

namespace {

struct Arm {
  std::string scheme;
  std::string compress;  // none, qsgd or topk
};

int bench_main(const bench::Args& args) {
  util::Table table({"arm", "rounds", "total time (s)", "final accuracy",
                     "uplink MB (sum)", "MB/round/client"});
  for (const Arm& arm : {Arm{"fedavg", "none"}, Arm{"fedavg", "qsgd"},
                         Arm{"fedca", "none"}, Arm{"fedca", "qsgd"},
                         Arm{"fedca", "topk"}, Arm{"fedca_lr", "none"}}) {
    const fl::Scenario cell = bench::load_cell(nn::ModelKind::kCnn, args, {"run.rounds=16"},
                                               {"scheme.compress=" + arm.compress});

    fl::ExperimentOptions options = cell.options;
    options.target_accuracy = 0.0;
    auto scheme = core::make_scheme(arm.scheme, fl::scheme_config(cell), options.seed);
    const fl::ExperimentResult result = fl::run_experiment(options, *scheme);

    double bytes = 0.0;
    std::size_t uploads = 0;
    for (const auto& round : result.rounds) {
      for (const auto& c : round.clients) {
        bytes += c.bytes_sent;
        ++uploads;
      }
    }
    table.add_row({result.scheme_name, std::to_string(result.rounds.size()),
                   util::Table::fmt(result.total_time, 1),
                   util::Table::fmt(result.final_accuracy, 4),
                   util::Table::fmt(bytes / 1e6, 2),
                   util::Table::fmt(bytes / 1e6 / static_cast<double>(uploads), 3)});
  }

  util::print_section(std::cout,
                      "Extensions: compression orthogonality & adaptive local lr (CNN)",
                      bench::describe(args));
  table.print(std::cout);
  std::cout << "\nExpected shapes: +qsgd cuts uplink MB ~3-4x at matching accuracy for\n"
               "both FedAvg and FedCA (orthogonal); FedCA+lr tracks FedCA's time with\n"
               "equal-or-better late-stage accuracy.\n";
  bench::maybe_save_csv(table, args, "ext_orthogonality");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run(argc, argv, bench_main); }
