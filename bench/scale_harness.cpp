// Million-client scale harness: throughput, RSS and live client-state
// accounting.
//
// Modes (mode=):
//   * probe — print build provenance only (the runner refuses to record
//             numbers from a debug build);
//   * sweep — run `rounds` federated rounds over a population of `clients`
//             virtual clients with a fixed sampled cohort, reporting
//             wall-clock rounds/sec, peak RSS (getrusage ru_maxrss), and
//             live client-state bytes (registry records, renewal state,
//             pooled device replicas and loader cursors, summed from
//             container capacities).
//
// Prints one JSON object on stdout; tools/bench_scale.py drives the sweep
// at 1k/10k/100k/1M and writes BENCH_scale.json.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "bench/common.hpp"
#include "fl/experiment.hpp"
#include "fl/scheme.hpp"
#include "tensor/simd/dispatch.hpp"

namespace {

using namespace fedca;

// Peak resident set size in bytes (Linux ru_maxrss is in kilobytes).
std::size_t peak_rss_bytes() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

std::size_t live_client_state_bytes(fl::ExperimentSetup& setup) {
  return setup.cluster->live_client_bytes() + setup.engine->live_loader_bytes();
}

// Shared workload geometry: LeNet on 16x16x3 synthetic images, small local
// work so the harness measures population machinery, not SGD throughput.
fl::ExperimentOptions base_options(const util::Config& config) {
  fl::ExperimentOptions options;
  options.model = nn::ModelKind::kCnn;
  options.local_iterations = static_cast<std::size_t>(config.get_int("k", 2));
  options.batch_size = static_cast<std::size_t>(config.get_int("batch", 16));
  options.test_samples = 16;
  options.worker_threads = static_cast<std::size_t>(config.get_int("workers", 0));
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 21));
  return options;
}

int run_sweep(const util::Config& config) {
  const auto clients = static_cast<std::size_t>(config.get_int("clients", 10000));
  const auto rounds = static_cast<std::size_t>(config.get_int("rounds", 10));
  const auto cohort = static_cast<std::size_t>(config.get_int("cohort", 32));
  const auto pool = static_cast<std::size_t>(config.get_int("shard_pool", 64));

  fl::ExperimentOptions options = base_options(config);
  options.num_clients = clients;
  options.shard_pool = pool;
  options.train_samples = 2048;
  options.participation_fraction =
      clients <= cohort ? 1.0
                        : static_cast<double>(cohort) / static_cast<double>(clients);
  options.cluster.availability.enabled = config.get_int("availability", 1) != 0;

  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);

  // One untimed round to populate the replica free lists.
  setup.engine->run_round();

  const auto start = std::chrono::steady_clock::now();
  std::size_t participants = 0;
  std::size_t offline = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const fl::RoundRecord record = setup.engine->run_round();
    participants += record.clients.size();
    offline += record.offline;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const double seconds = elapsed.count() > 0 ? elapsed.count() : 1e-9;

  std::printf(
      "{\"build_type\":\"%s\",\"simd_tier\":\"%s\",\"mode\":\"sweep\","
      "\"clients\":%zu,\"rounds\":%zu,\"cohort\":%zu,"
      "\"availability\":%d,\"participants\":%zu,\"offline_skips\":%zu,"
      "\"rounds_per_sec\":%.4f,\"wall_seconds\":%.4f,"
      "\"live_client_bytes\":%zu,\"peak_rss_bytes\":%zu}\n",
      bench::build_type(), tensor::simd::active_tier_name(), clients, rounds,
      cohort, options.cluster.availability.enabled ? 1 : 0, participants, offline,
      static_cast<double>(rounds) / seconds, seconds,
      live_client_state_bytes(setup), peak_rss_bytes());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config config = bench::parse_config(argc, argv);
  const std::string mode = config.get_string("mode", "sweep");
  if (mode == "probe") {
    std::printf("{\"build_type\":\"%s\",\"mode\":\"probe\"}\n", bench::build_type());
    return 0;
  }
  if (mode == "sweep") return run_sweep(config);
  std::fprintf(stderr, "scale_harness: unknown mode '%s'\n", mode.c_str());
  return 1;
}
