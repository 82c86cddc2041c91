// Partial client participation (per-round selection).
#include <gtest/gtest.h>

#include <set>

#include "fl/experiment.hpp"
#include "fl/scenario.hpp"

namespace fedca {
namespace {

// Base geometry lives in scenarios/participation_smoke.scn (golden-pinned
// by tools_golden_scenario_participation_smoke). Scenario tier only — no
// env_overrides() — so the tests stay hermetic from FEDCA_* env; each
// test overrides its participation knobs programmatically.
fl::ExperimentOptions base_options() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/participation_smoke.scn");
  return scenario.options;
}

TEST(Participation, FullParticipationByDefault) {
  fl::FedAvgScheme scheme;
  const fl::ExperimentResult result = fl::run_experiment(base_options(), scheme);
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.clients.size(), 8u);
  }
}

TEST(Participation, FractionSelectsSubsetEachRound) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = base_options();
  options.participation_fraction = 0.5;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  std::set<std::size_t> seen;
  std::set<std::set<std::size_t>> distinct_rosters;
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.clients.size(), 4u);  // ceil(0.5 * 8)
    std::set<std::size_t> roster;
    for (const auto& c : round.clients) {
      EXPECT_LT(c.client_id, 8u);
      roster.insert(c.client_id);
      seen.insert(c.client_id);
    }
    EXPECT_EQ(roster.size(), 4u);  // no duplicates within a round
    distinct_rosters.insert(roster);
  }
  // Over six rounds the roster rotates (selection is random, not fixed).
  EXPECT_GT(distinct_rosters.size(), 1u);
  EXPECT_GT(seen.size(), 4u);
}

TEST(Participation, CollectFractionAppliesToParticipants) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = base_options();
  options.num_clients = 10;
  options.participation_fraction = 0.5;  // 5 participants
  options.collect_fraction = 0.8;        // ceil(4) collected
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  for (const auto& round : result.rounds) {
    std::size_t collected = 0;
    for (const auto& c : round.clients) {
      if (c.collected) ++collected;
    }
    EXPECT_EQ(collected, 4u);
  }
}

TEST(Participation, DeterministicSelection) {
  auto run = [] {
    fl::FedAvgScheme scheme;
    fl::ExperimentOptions options = base_options();
    options.participation_fraction = 0.5;
    const fl::ExperimentResult r = fl::run_experiment(options, scheme);
    std::vector<std::size_t> ids;
    for (const auto& round : r.rounds) {
      for (const auto& c : round.clients) ids.push_back(c.client_id);
    }
    return ids;
  };
  EXPECT_EQ(run(), run());
}

TEST(Participation, TrainingStillConverges) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = base_options();
  options.participation_fraction = 0.6;
  options.max_rounds = 12;
  options.data_spec.noise_stddev = 0.5;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  EXPECT_GT(result.final_accuracy, 0.3);  // 10-class chance = 0.1
}

TEST(Participation, InvalidFractionThrows) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = base_options();
  options.participation_fraction = 0.0;
  EXPECT_THROW(fl::run_experiment(options, scheme), std::invalid_argument);
  options.participation_fraction = 1.2;
  EXPECT_THROW(fl::run_experiment(options, scheme), std::invalid_argument);
}

}  // namespace
}  // namespace fedca
