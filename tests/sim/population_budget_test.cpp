// Million-client memory budget: a 1M-client population with availability
// churn must hold at most 112 bytes of live client state per client and
// stay under 2 GB of peak resident memory.
//
// Live client state is summed from container capacities (registry records,
// renewal state, pooled device replicas and loader cursors), so that bound
// does not move with the host and is checked in every build. Peak RSS is
// getrusage's high-water mark; gtest_discover_tests runs each test in its
// own process, so it is this test's alone. Sanitizer builds inflate RSS by
// their shadow memory, so the RSS bound is skipped there.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstddef>
#include <string>

#include "fl/experiment.hpp"
#include "fl/scheme.hpp"
#include "sim/cluster.hpp"

namespace fedca {
namespace {

constexpr std::size_t kClients = 1'000'000;
constexpr double kMaxLiveBytesPerClient = 112.0;
constexpr std::size_t kMaxPeakRssBytes = std::size_t{2} << 30;

// LeNet on 16x16x3 synthetic images with little local work, so the run
// exercises the population machinery rather than SGD: a 32-client cohort
// out of 1M, k = 2, batch 16, 64 pooled shards. Built programmatically
// because the population is far beyond what a committed scenario runs.
fl::ExperimentOptions million_client_options() {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = kClients;
  options.shard_pool = 64;
  options.train_samples = 2048;
  options.test_samples = 16;
  options.local_iterations = 2;
  options.batch_size = 16;
  options.participation_fraction = 32.0 / static_cast<double>(kClients);
  options.cluster.availability.enabled = true;
  options.seed = 21;
  return options;
}

// One warm-up round fills the replica free lists; ten more run at steady
// state. Returns the live client-state bytes after the last round.
std::size_t run_million_clients() {
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(million_client_options(), scheme);
  for (std::size_t r = 0; r < 1 + 10; ++r) setup.engine->run_round();
  return setup.cluster->live_client_bytes() + setup.engine->live_loader_bytes();
}

TEST(PopulationBudget, LiveClientStatePerClient) {
  const double per_client =
      static_cast<double>(run_million_clients()) / static_cast<double>(kClients);
  RecordProperty("live_bytes_per_client", std::to_string(per_client));
  EXPECT_LE(per_client, kMaxLiveBytesPerClient);
}

TEST(PopulationBudget, PeakResidentMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory inflates RSS; the 2 GB bound "
                  "holds for uninstrumented builds only";
#endif
  run_million_clients();
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const std::size_t peak = static_cast<std::size_t>(usage.ru_maxrss) * 1024;
  RecordProperty("peak_rss_bytes", std::to_string(peak));
  EXPECT_LT(peak, kMaxPeakRssBytes);
}

}  // namespace
}  // namespace fedca
