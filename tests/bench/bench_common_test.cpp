// Bench plumbing: scale presets, override precedence, RecordingScheme.
#include <gtest/gtest.h>

#include <string>

#include "bench/common.hpp"
#include "fl/scenario.hpp"

namespace fedca {
namespace {

util::Config cfg(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return bench::parse_config(static_cast<int>(args.size()),
                             const_cast<char**>(args.data()));
}

TEST(BenchCommon, QuickScaleGeometry) {
  const util::Config config = cfg({});
  const fl::ExperimentOptions o = bench::workload_options(nn::ModelKind::kCnn, config);
  EXPECT_EQ(o.num_clients, 10u);
  EXPECT_EQ(o.local_iterations, 30u);
  EXPECT_EQ(o.batch_size, 10u);
  EXPECT_DOUBLE_EQ(o.dirichlet_alpha, 0.1);
  EXPECT_DOUBLE_EQ(o.collect_fraction, 0.9);
  EXPECT_TRUE(o.cluster.dynamicity.enabled);
}

TEST(BenchCommon, PaperScaleGeometryMatchesSec51) {
  const util::Config config = cfg({"scale=paper"});
  const fl::ExperimentOptions o = bench::workload_options(nn::ModelKind::kWrn, config);
  EXPECT_EQ(o.num_clients, 128u);     // 128 c6i.large clients
  EXPECT_EQ(o.local_iterations, 125u);  // K = 125
  EXPECT_EQ(o.batch_size, 50u);         // batch 50
}

TEST(BenchCommon, CliOverridesWin) {
  const util::Config config = cfg({"clients=7", "k=11", "lr=0.123"});
  const fl::ExperimentOptions o = bench::workload_options(nn::ModelKind::kCnn, config);
  EXPECT_EQ(o.num_clients, 7u);
  EXPECT_EQ(o.local_iterations, 11u);
  EXPECT_DOUBLE_EQ(o.optimizer.learning_rate, 0.123);
}

TEST(BenchCommon, QuickScaleInjectsProfilingPeriod) {
  const util::Config config = cfg({});
  EXPECT_EQ(config.get_string("fedca_period", "?"), "5");
  const util::Config explicit_config = cfg({"fedca_period=9"});
  EXPECT_EQ(explicit_config.get_string("fedca_period", "?"), "9");
}

TEST(BenchCommon, UnknownScaleThrows) {
  // Built by hand: parse_config exits 2 on it (tests/tools/bench_cli_test.py).
  util::Config config;
  config.set("scale", "galactic");
  EXPECT_THROW(bench::workload_options(nn::ModelKind::kCnn, config),
               util::ConfigError);
}

TEST(BenchCommon, PaperTargets) {
  EXPECT_DOUBLE_EQ(bench::paper_target_accuracy(nn::ModelKind::kCnn), 0.55);
  EXPECT_DOUBLE_EQ(bench::paper_target_accuracy(nn::ModelKind::kLstm), 0.85);
  EXPECT_DOUBLE_EQ(bench::paper_target_accuracy(nn::ModelKind::kWrn), 0.55);
}

TEST(BenchCommon, RecordingSchemeCapturesEveryRound) {
  bench::RecordingScheme scheme(1000, 3);
  // Geometry from the committed baseline scenario; only the knobs this
  // test asserts on are overridden.
  const fl::Scenario sc = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/faultfree.scn");
  fl::ExperimentOptions options = sc.options;
  options.num_clients = 3;
  options.local_iterations = 4;
  options.train_samples = 150;
  options.max_rounds = 3;
  options.seed = 8;
  fl::run_experiment(options, scheme);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& history = scheme.history(c);
    ASSERT_EQ(history.size(), 3u);
    for (std::size_t r = 0; r < history.size(); ++r) {
      EXPECT_EQ(history[r].round_index, r);
      ASSERT_FALSE(history[r].model.empty());
      EXPECT_EQ(history[r].model.size(), 4u);  // one P per local iteration
      EXPECT_NEAR(history[r].model.back(), 1.0, 1e-9);
      EXPECT_EQ(history[r].layers.size(), history[r].layer_names.size());
    }
  }
}

}  // namespace
}  // namespace fedca
