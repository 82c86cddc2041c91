// Bench plumbing: the Table 1 cells at both scales, override precedence,
// RecordingScheme.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "fl/scenario.hpp"
#include "sim/scenario.hpp"

namespace fedca {
namespace {

bench::Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return bench::parse_args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
}

// What each Table 1 cell sets besides the scale's geometry.
struct Cell {
  nn::ModelKind kind;
  double lr;
  double weight_decay;
  double noise;
  double target;
};
constexpr Cell kCells[] = {{nn::ModelKind::kCnn, 0.05, 0.01, 1.6, 0.55},
                           {nn::ModelKind::kLstm, 0.10, 0.01, 1.0, 0.85},
                           {nn::ModelKind::kWrn, 0.05, 0.0005, 1.4, 0.55}};

void expect_cell(const fl::Scenario& sc, const Cell& cell) {
  const fl::ExperimentOptions& o = sc.options;
  EXPECT_EQ(o.model, cell.kind);
  EXPECT_DOUBLE_EQ(o.optimizer.learning_rate, cell.lr);
  EXPECT_DOUBLE_EQ(o.optimizer.weight_decay, cell.weight_decay);
  EXPECT_DOUBLE_EQ(o.data_spec.noise_stddev, cell.noise);
  EXPECT_DOUBLE_EQ(o.target_accuracy, cell.target);
  EXPECT_DOUBLE_EQ(o.dirichlet_alpha, 0.1);
  EXPECT_DOUBLE_EQ(o.collect_fraction, 0.9);
  EXPECT_TRUE(o.cluster.dynamicity.enabled);
  EXPECT_DOUBLE_EQ(o.cluster.heterogeneity.bandwidth_mbps, 13.7);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(sc.scheme, "fedca");
}

TEST(BenchCommon, QuickScaleGeometry) {
  for (const Cell& cell : kCells) {
    const fl::Scenario sc = bench::load_cell(cell.kind, parse({}));
    SCOPED_TRACE(sc.name);
    expect_cell(sc, cell);
    EXPECT_EQ(sc.options.num_clients, 10u);
    EXPECT_EQ(sc.options.local_iterations, 30u);
    EXPECT_EQ(sc.options.batch_size, 10u);
    EXPECT_EQ(sc.options.train_samples, 600u);
    EXPECT_EQ(sc.options.test_samples, 320u);
    EXPECT_EQ(sc.options.max_rounds, 50u);
  }
}

TEST(BenchCommon, PaperScaleGeometryMatchesSec51) {
  for (const Cell& cell : kCells) {
    const fl::Scenario sc = bench::load_cell(cell.kind, parse({"scale=paper"}));
    SCOPED_TRACE(sc.name);
    expect_cell(sc, cell);
    EXPECT_EQ(sc.options.num_clients, 128u);       // 128 c6i.large clients
    EXPECT_EQ(sc.options.local_iterations, 125u);  // K = 125
    EXPECT_EQ(sc.options.batch_size, 50u);         // batch 50
    EXPECT_EQ(sc.options.train_samples, 60'000u);
    EXPECT_EQ(sc.options.test_samples, 2'000u);
    EXPECT_EQ(sc.options.max_rounds, 400u);
    // The paper's anchor period: the scheme's default.
    EXPECT_FALSE(sc.scheme_params.contains("fedca_period"));
  }
}

TEST(BenchCommon, CliOverridesWin) {
  const bench::Args args = parse({"data.clients=7", "training.local_iterations=11",
                                  "training.lr=0.123", "run.rounds=7"});
  // The command line beats both the file and the bench's default.
  const fl::Scenario sc = bench::load_cell(nn::ModelKind::kCnn, args, {"run.rounds=18"});
  EXPECT_EQ(sc.options.num_clients, 7u);
  EXPECT_EQ(sc.options.local_iterations, 11u);
  EXPECT_DOUBLE_EQ(sc.options.optimizer.learning_rate, 0.123);
  EXPECT_EQ(sc.options.max_rounds, 7u);
  // Without it the bench's default beats the file; an arm beats both.
  EXPECT_EQ(bench::load_cell(nn::ModelKind::kCnn, parse({}), {"run.rounds=18"})
                .options.max_rounds,
            18u);
  EXPECT_EQ(bench::load_cell(nn::ModelKind::kCnn, args, {}, {"run.rounds=3"})
                .options.max_rounds,
            3u);
}

TEST(BenchCommon, QuickScaleInjectsProfilingPeriod) {
  const fl::Scenario quick = bench::load_cell(nn::ModelKind::kCnn, parse({}));
  EXPECT_EQ(fl::scheme_config(quick).get_string("fedca_period", "?"), "5");
  const fl::Scenario explicit_period =
      bench::load_cell(nn::ModelKind::kCnn, parse({"scheme.fedca_period=9"}));
  EXPECT_EQ(fl::scheme_config(explicit_period).get_string("fedca_period", "?"), "9");
}

TEST(BenchCommon, UnknownScaleThrows) {
  EXPECT_THROW(bench::load_cell(nn::ModelKind::kCnn, parse({"scale=galactic"})),
               util::ConfigError);
}

TEST(BenchCommon, PaperTargets) {
  // Table 1's target accuracies, at both scales.
  for (const char* scale : {"scale=quick", "scale=paper"}) {
    const bench::Args args = parse({scale});
    EXPECT_DOUBLE_EQ(bench::load_cell(nn::ModelKind::kCnn, args).options.target_accuracy,
                     0.55);
    EXPECT_DOUBLE_EQ(bench::load_cell(nn::ModelKind::kLstm, args).options.target_accuracy,
                     0.85);
    EXPECT_DOUBLE_EQ(bench::load_cell(nn::ModelKind::kWrn, args).options.target_accuracy,
                     0.55);
  }
}

TEST(BenchCommon, BadOverrideThrowsNamingTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"data.ronuds=3", "ronuds"},         {"bogus.key=1", "bogus"},
      {"data.clients=0", "clients"},       {"training.lr=abc", "lr"},
      {"cluster.dynamicity=maybe", "dynamicity"},
      {"scheme.fedca_bogus=1", "fedca_bogus"}};
  for (const auto& [override_arg, key] : cases) {
    try {
      bench::load_cell(nn::ModelKind::kCnn, parse({override_arg}));
      ADD_FAILURE() << override_arg << " was accepted";
    } catch (const sim::scenario::ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      EXPECT_EQ(e.file(), sim::scenario::kOverrideSource) << e.what();
    }
  }
}

TEST(BenchCommon, ParseArgsKeepsOnlyBenchKeys) {
  const bench::Args args = parse({"csv_dir=/tmp/x", "run.seed=3", "models=cnn,wrn"});
  EXPECT_EQ(args.config.get_string("csv_dir", ""), "/tmp/x");
  EXPECT_EQ(args.overrides, std::vector<std::string>{"run.seed=3"});
  EXPECT_EQ(bench::models(args.config),
            (std::vector<nn::ModelKind>{nn::ModelKind::kCnn, nn::ModelKind::kWrn}));
  // Flat spellings of scenario keys and bad lists are rejected.
  for (const char* bad : {"clients=7", "lr=0.1", "banana"}) {
    EXPECT_THROW(parse({bad}), util::ConfigError) << bad;
  }
  EXPECT_THROW(bench::models(parse({"models=cnn,xyz"}).config), util::ConfigError);
  EXPECT_THROW(bench::schemes(parse({"schemes=fedavg,bogus"}).config), util::ConfigError);
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
