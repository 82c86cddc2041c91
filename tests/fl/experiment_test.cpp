// Experiment driver: setup wiring, TTA detection, summaries, behaviour
// extraction helpers.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <string>

#include "core/fedca_scheme.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"

namespace fedca {
namespace {

// The historical tiny() setup now lives in scenarios/faultfree.scn (also
// golden-pinned by tools_golden_scenario_faultfree). Scenario tier only —
// no resolve_options() — so the tests stay hermetic from FEDCA_* env.
fl::ExperimentOptions tiny() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/faultfree.scn");
  return scenario.options;
}

TEST(ExperimentSetup, WiresEverything) {
  fl::FedAvgScheme scheme;
  const fl::ExperimentOptions options = tiny();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  ASSERT_NE(setup.model, nullptr);
  ASSERT_NE(setup.cluster, nullptr);
  ASSERT_NE(setup.engine, nullptr);
  EXPECT_EQ(setup.cluster->size(), options.num_clients);
  EXPECT_EQ(setup.shards.size(), options.num_clients);
  EXPECT_EQ(setup.test_set.size(), options.test_samples);
  std::size_t total = 0;
  for (const auto& shard : setup.shards) total += shard.size();
  EXPECT_EQ(total, options.train_samples);
}

TEST(ExperimentSetup, EvaluateGlobalUsesGlobalWeights) {
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(tiny(), scheme);
  const auto before = fl::evaluate_global(setup);
  setup.engine->run_round();
  const auto after = fl::evaluate_global(setup);
  // Values are finite and in range (the model moved; either direction ok).
  EXPECT_GE(after.accuracy, 0.0);
  EXPECT_LE(after.accuracy, 1.0);
  EXPECT_GT(before.loss, 0.0);
  EXPECT_GT(after.loss, 0.0);
}

TEST(Experiment, RunsMaxRoundsWithoutTarget) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.target_accuracy = 0.0;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  EXPECT_EQ(result.rounds.size(), options.max_rounds);
  EXPECT_FALSE(result.reached_target);
  EXPECT_EQ(result.curve.size(), options.max_rounds);
  EXPECT_GT(result.mean_round_seconds, 0.0);
  EXPECT_EQ(result.scheme_name, "FedAvg");
  EXPECT_EQ(result.model_name, "CNN");
}

TEST(Experiment, StopsAtTarget) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 40;
  options.target_accuracy = 0.3;  // easy task, quickly reachable
  options.accuracy_smoothing = 1;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  ASSERT_TRUE(result.reached_target);
  EXPECT_LT(result.rounds_to_target, 40u);
  EXPECT_GT(result.time_to_target, 0.0);
  EXPECT_EQ(result.rounds.size(), result.rounds_to_target);
}

TEST(Experiment, CurveTimesAreMonotone) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GT(result.curve[i].virtual_time, result.curve[i - 1].virtual_time);
    EXPECT_EQ(result.curve[i].round_index, result.curve[i - 1].round_index + 1);
  }
}

TEST(Experiment, EvalEverySkipsRounds) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 5;
  options.eval_every = 2;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  // Rounds 0, 2, 4 evaluated (+ last round forced; 4 is last).
  EXPECT_EQ(result.curve.size(), 3u);
}

TEST(Experiment, SummariesMarkCollectedClients) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.num_clients = 10;
  options.collect_fraction = 0.9;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  for (const auto& round : result.rounds) {
    std::size_t collected = 0;
    for (const auto& c : round.clients) {
      if (c.collected) ++collected;
    }
    EXPECT_EQ(collected, 9u);
  }
}

TEST(Experiment, BehaviourExtractionMatchesSummaries) {
  core::FedCaOptions fo;
  fo.profiler.period = 2;
  core::FedCaScheme scheme(fo, core::FedCaVariant::kV3, 3);
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 6;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);

  std::size_t stops = 0, eagers = 0, retrans = 0;
  for (const auto& round : result.rounds) {
    for (const auto& c : round.clients) {
      if (c.early_stopped) ++stops;
      eagers += c.eager.size();
      for (const auto& e : c.eager) {
        if (e.retransmitted) ++retrans;
      }
    }
  }
  EXPECT_EQ(result.early_stop_iterations().size(), stops);
  EXPECT_EQ(result.eager_iterations(false).size(), eagers);
  EXPECT_EQ(result.eager_iterations(true).size(), eagers);
  // Effective moments with retransmission are never earlier than raw ones.
  const auto raw = result.eager_iterations(false);
  const auto eff = result.eager_iterations(true);
  double raw_sum = 0.0, eff_sum = 0.0;
  for (const double v : raw) raw_sum += v;
  for (const double v : eff) eff_sum += v;
  EXPECT_GE(eff_sum, raw_sum);
}

// Two full runs from the same seed must agree bit-for-bit: final accuracy,
// every round's virtual start/end, and every client's arrival. This is the
// reproducibility contract all bench figures rely on.
TEST(Experiment, SameSeedRunsAreBitIdentical) {
  auto run = [] {
    fl::FedAvgScheme scheme;
    return fl::run_experiment(tiny(), scheme);
  };
  const fl::ExperimentResult a = run();
  const fl::ExperimentResult b = run();

  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_time, b.total_time);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].start_time, b.rounds[r].start_time);
    EXPECT_EQ(a.rounds[r].end_time, b.rounds[r].end_time);
    ASSERT_EQ(a.rounds[r].clients.size(), b.rounds[r].clients.size());
    for (std::size_t i = 0; i < a.rounds[r].clients.size(); ++i) {
      EXPECT_EQ(a.rounds[r].clients[i].arrival_time,
                b.rounds[r].clients[i].arrival_time);
      EXPECT_EQ(a.rounds[r].clients[i].iterations_run,
                b.rounds[r].clients[i].iterations_run);
    }
  }
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].accuracy, b.curve[i].accuracy);
    EXPECT_EQ(a.curve[i].virtual_time, b.curve[i].virtual_time);
  }
}

// Threads of this process: the entries of /proc/self/task.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

// A run's worker pool belongs to the run: every thread it started has
// been joined by the time run_experiment returns.
TEST(Experiment, NoPoolThreadOutlivesTheRun) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = tiny();
  options.worker_threads = 2;
  const std::size_t before = live_threads();
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  ASSERT_EQ(result.rounds.size(), options.max_rounds);
  EXPECT_EQ(live_threads(), before);
}

}  // namespace
}  // namespace fedca
