// FedCA scheme/policy integration: variants, factory, anchor behaviour,
// and end-to-end properties on real federated runs.
#include <gtest/gtest.h>

#include <string>

#include "core/factory.hpp"
#include "core/fedca_scheme.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"

namespace fedca {
namespace {

// The historical tiny_options() setup now lives in scenarios/
// tiny_fedca.scn. Scenario tier only — no env_overrides() — so the
// tests stay hermetic from FEDCA_* env; schemes are still built
// programmatically per test (variants, sweeps).
fl::ExperimentOptions tiny_options() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/tiny_fedca.scn");
  return scenario.options;
}

core::FedCaOptions tiny_fedca_options() {
  core::FedCaOptions o;
  o.profiler.period = 4;  // anchor at rounds 0 and 4
  return o;
}

TEST(FedCaVariants, TogglesMatchAblationArms) {
  core::FedCaOptions base;
  const core::FedCaOptions v1 = core::apply_variant(base, core::FedCaVariant::kV1);
  EXPECT_TRUE(v1.early_stop.enabled);
  EXPECT_FALSE(v1.eager.enabled);
  const core::FedCaOptions v2 = core::apply_variant(base, core::FedCaVariant::kV2);
  EXPECT_TRUE(v2.eager.enabled);
  EXPECT_FALSE(v2.eager.retransmit);
  const core::FedCaOptions v3 = core::apply_variant(base, core::FedCaVariant::kV3);
  EXPECT_TRUE(v3.eager.enabled);
  EXPECT_TRUE(v3.eager.retransmit);
}

TEST(FedCaScheme, Names) {
  core::FedCaOptions o;
  EXPECT_EQ(core::FedCaScheme(o, core::FedCaVariant::kV1).name(), "FedCA-v1");
  EXPECT_EQ(core::FedCaScheme(o, core::FedCaVariant::kV2).name(), "FedCA-v2");
  EXPECT_EQ(core::FedCaScheme(o, core::FedCaVariant::kV3).name(), "FedCA");
}

TEST(Factory, BuildsEveryKnownScheme) {
  util::Config config;
  // fl::kSchemeNames is the list a scenario's [scheme] name is checked
  // against; every entry must build.
  for (const char* name : fl::kSchemeNames) {
    auto scheme = core::make_scheme(name, config);
    ASSERT_NE(scheme, nullptr) << name;
  }
  EXPECT_THROW(core::make_scheme("bogus", config), std::invalid_argument);
}

TEST(Factory, ReadsHyperparameters) {
  util::Config config;
  config.set("fedca_beta", "0.1");
  config.set("fedca_te", "0.85");
  config.set("fedca_tr", "0.8");
  config.set("fedca_period", "5");
  auto scheme = core::make_scheme("fedca", config);
  auto* fedca = dynamic_cast<core::FedCaScheme*>(scheme.get());
  ASSERT_NE(fedca, nullptr);
  EXPECT_DOUBLE_EQ(fedca->options().early_stop.beta, 0.1);
  EXPECT_DOUBLE_EQ(fedca->options().eager.stabilize_threshold, 0.85);
  EXPECT_DOUBLE_EQ(fedca->options().eager.retransmit_threshold, 0.8);
  EXPECT_EQ(fedca->options().profiler.period, 5u);
}

TEST(FedCaEndToEnd, AnchorRoundsRunFullWorkloadAndNeverOptimize) {
  core::FedCaScheme scheme(tiny_fedca_options(), core::FedCaVariant::kV3, 1);
  fl::ExperimentOptions options = tiny_options();
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  ASSERT_GE(result.rounds.size(), 5u);
  for (const std::size_t anchor : {0u, 4u}) {
    for (const auto& c : result.rounds[anchor].clients) {
      EXPECT_EQ(c.iterations_run, options.local_iterations) << "anchor " << anchor;
      EXPECT_FALSE(c.early_stopped);
      EXPECT_TRUE(c.eager.empty());
    }
  }
}

TEST(FedCaEndToEnd, OptimizationsFireAfterFirstAnchor) {
  core::FedCaScheme scheme(tiny_fedca_options(), core::FedCaVariant::kV3, 1);
  const fl::ExperimentResult result = fl::run_experiment(tiny_options(), scheme);
  EXPECT_GT(result.eager_iterations(false).size(), 0u);
  // Early stops require a deadline (round >= 1) and curves (round >= 1).
  std::size_t early = 0;
  for (const auto& round : result.rounds) {
    if (round.round_index == 0) continue;
    for (const auto& c : round.clients) {
      if (c.early_stopped) ++early;
    }
  }
  EXPECT_GT(early, 0u);
}

TEST(FedCaEndToEnd, V1NeverTransmitsEagerly) {
  core::FedCaScheme scheme(tiny_fedca_options(), core::FedCaVariant::kV1, 1);
  const fl::ExperimentResult result = fl::run_experiment(tiny_options(), scheme);
  EXPECT_TRUE(result.eager_iterations(false).empty());
}

TEST(FedCaEndToEnd, V2NeverRetransmits) {
  core::FedCaScheme scheme(tiny_fedca_options(), core::FedCaVariant::kV2, 1);
  const fl::ExperimentResult result = fl::run_experiment(tiny_options(), scheme);
  for (const auto& round : result.rounds) {
    for (const auto& c : round.clients) {
      for (const auto& e : c.eager) EXPECT_FALSE(e.retransmitted);
    }
  }
}

TEST(FedCaEndToEnd, FasterThanFedAvgAtSimilarAccuracy) {
  // The headline claim at miniature scale: same rounds, lower virtual time,
  // comparable accuracy.
  fl::ExperimentOptions options = tiny_options();
  options.max_rounds = 10;

  fl::FedAvgScheme fedavg;
  const fl::ExperimentResult base = fl::run_experiment(options, fedavg);
  core::FedCaScheme fedca(tiny_fedca_options(), core::FedCaVariant::kV3, 1);
  const fl::ExperimentResult ours = fl::run_experiment(options, fedca);

  EXPECT_LT(ours.total_time, base.total_time);
  EXPECT_GT(ours.final_accuracy, base.final_accuracy - 0.15);
}

TEST(FedCaEndToEnd, DeterministicRuns) {
  auto run = [] {
    core::FedCaScheme scheme(tiny_fedca_options(), core::FedCaVariant::kV3, 1);
    fl::ExperimentOptions options = tiny_options();
    options.max_rounds = 5;
    return fl::run_experiment(options, scheme);
  };
  const fl::ExperimentResult a = run();
  const fl::ExperimentResult b = run();
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].accuracy, b.curve[i].accuracy);
    EXPECT_DOUBLE_EQ(a.curve[i].virtual_time, b.curve[i].virtual_time);
  }
  EXPECT_EQ(a.eager_iterations(false), b.eager_iterations(false));
}

TEST(FedCaEndToEnd, ProfilerOverheadIsSmall) {
  // Sec. 5.5: the sampled-parameter memory must be a tiny fraction of the
  // model. At our scale: <= layer_cap * layers * 4 bytes per iteration.
  core::FedCaScheme scheme(tiny_fedca_options(), core::FedCaVariant::kV3, 1);
  fl::ExperimentOptions options = tiny_options();
  options.max_rounds = 2;
  fl::run_experiment(options, scheme);
  const core::SamplingProfiler& profiler = scheme.policy(0).profiler();
  EXPECT_GT(profiler.sampled_param_count(), 0u);
  util::Rng rng(1);
  const std::size_t model_params =
      nn::build_model(nn::ModelKind::kCnn, rng).info().actual_params;
  EXPECT_LT(profiler.sampled_param_count(), model_params / 10);
}

TEST(FedCaEndToEnd, EarlyStopsHappenLateInRound) {
  // min_iterations guard + diminishing curves: stops should never occur
  // in the first iteration and should cluster after the curve flattens.
  core::FedCaOptions opts = tiny_fedca_options();
  opts.early_stop.min_iterations = 3;
  core::FedCaScheme scheme(opts, core::FedCaVariant::kV3, 1);
  const fl::ExperimentResult result = fl::run_experiment(tiny_options(), scheme);
  for (const double iter : result.early_stop_iterations()) {
    EXPECT_GE(iter, 3.0);
  }
}

}  // namespace
}  // namespace fedca
