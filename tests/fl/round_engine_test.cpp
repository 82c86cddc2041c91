// Round-engine integration: timing invariants, update semantics, eager
// transmission and error-feedback exactness, determinism.
#include <gtest/gtest.h>

#include <cmath>

#include <string>

#include "fl/experiment.hpp"
#include "fl/round_engine.hpp"
#include "fl/scenario.hpp"
#include "fl/scheme.hpp"

namespace fedca {
namespace {

// The historical small_options() setup now lives in scenarios/
// engine_smoke.scn. Scenario tier only — no env_overrides() — so the
// tests stay hermetic from FEDCA_* env.
fl::ExperimentOptions small_options() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/engine_smoke.scn");
  return scenario.options;
}

// Scheme whose policy is injectable for testing engine hooks.
class HookScheme : public fl::Scheme {
 public:
  explicit HookScheme(fl::ClientPolicy* policy) : policy_(policy) {}
  std::string name() const override { return "Hook"; }
  fl::ClientPolicy& client_policy(std::size_t) override { return *policy_; }

 private:
  fl::ClientPolicy* policy_;
};

TEST(RoundEngine, TimingInvariants) {
  fl::FedAvgScheme scheme;
  const fl::ExperimentOptions options = small_options();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const fl::RoundRecord record = setup.engine->run_round();

  EXPECT_EQ(record.round_index, 0u);
  EXPECT_DOUBLE_EQ(record.start_time, 0.0);
  EXPECT_GT(record.end_time, 0.0);
  double max_collected_arrival = 0.0;
  for (const auto& c : record.clients) {
    EXPECT_GT(c.download_done, record.start_time);
    EXPECT_GE(c.compute_done, c.download_done);
    EXPECT_GT(c.arrival_time, c.compute_done);  // upload takes time
    EXPECT_EQ(c.iterations_run, options.local_iterations);
    EXPECT_FALSE(c.early_stopped);
    EXPECT_GT(c.bytes_sent, 0.0);
  }
  for (const std::size_t idx : record.collected) {
    max_collected_arrival = std::max(max_collected_arrival,
                                     record.clients[idx].arrival_time);
  }
  EXPECT_DOUBLE_EQ(record.end_time, max_collected_arrival);
  // Next round starts where this one ended.
  const fl::RoundRecord next = setup.engine->run_round();
  EXPECT_DOUBLE_EQ(next.start_time, record.end_time);
  EXPECT_EQ(next.round_index, 1u);
}

TEST(RoundEngine, PartialCollectionQuota) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = small_options();
  options.num_clients = 10;
  options.collect_fraction = 0.9;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const fl::RoundRecord record = setup.engine->run_round();
  EXPECT_EQ(record.clients.size(), 10u);
  EXPECT_EQ(record.collected.size(), 9u);
  // The dropped client is the latest arrival.
  double dropped_arrival = 0.0;
  std::vector<bool> collected(10, false);
  for (const std::size_t idx : record.collected) collected[idx] = true;
  for (std::size_t i = 0; i < 10; ++i) {
    if (!collected[i]) dropped_arrival = record.clients[i].arrival_time;
  }
  for (const std::size_t idx : record.collected) {
    EXPECT_LE(record.clients[idx].arrival_time, dropped_arrival);
  }
}

TEST(RoundEngine, AggregationMovesGlobalModel) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = small_options();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const nn::ModelState before = setup.engine->global_state();
  setup.engine->run_round();
  const nn::ModelState after = setup.engine->global_state();
  const nn::ModelState diff = nn::state_sub(after, before);
  EXPECT_GT(nn::state_l2_norm(diff), 0.0);
}

TEST(RoundEngine, DeterministicAcrossRuns) {
  auto run_once = [] {
    fl::FedAvgScheme scheme;
    fl::ExperimentOptions options = small_options();
    fl::ExperimentSetup setup = fl::make_setup(options, scheme);
    setup.engine->run_round();
    const fl::RoundRecord r = setup.engine->run_round();
    return std::make_pair(r.end_time, setup.engine->global_state().flattened());
  };
  const auto [t1, s1] = run_once();
  const auto [t2, s2] = run_once();
  EXPECT_DOUBLE_EQ(t1, t2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) ASSERT_EQ(s1[i], s2[i]);
}

TEST(RoundEngine, WeightsAreShardSizes) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = small_options();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const fl::RoundRecord record = setup.engine->run_round();
  for (const auto& c : record.clients) {
    EXPECT_DOUBLE_EQ(c.weight, static_cast<double>(setup.shards[c.client_id].size()));
  }
}

// A policy that stops everyone after 2 iterations.
class StopAt2Policy : public fl::ClientPolicy {
 public:
  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    fl::IterationDecision d;
    d.stop = view.iteration >= 2;
    return d;
  }
};

TEST(RoundEngine, EarlyStopReducesIterationsAndTime) {
  fl::ExperimentOptions options = small_options();

  fl::FedAvgScheme full_scheme;
  fl::ExperimentSetup full = fl::make_setup(options, full_scheme);
  const fl::RoundRecord full_record = full.engine->run_round();

  StopAt2Policy stopper;
  HookScheme stop_scheme(&stopper);
  fl::ExperimentSetup stopped = fl::make_setup(options, stop_scheme);
  const fl::RoundRecord stop_record = stopped.engine->run_round();

  for (const auto& c : stop_record.clients) {
    EXPECT_EQ(c.iterations_run, 2u);
    EXPECT_TRUE(c.early_stopped);
  }
  EXPECT_LT(stop_record.duration(), full_record.duration());
}

// A policy that eagerly transmits layer 0 at iteration 1 and never
// retransmits: the applied update for layer 0 must equal the update at
// iteration 1, not the final one.
class EagerLayer0Policy : public fl::ClientPolicy {
 public:
  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    fl::IterationDecision d;
    if (view.iteration == 1) d.eager_layers = {0};
    return d;
  }
};

TEST(RoundEngine, EagerValueIsAppliedWithoutRetransmission) {
  EagerLayer0Policy eager;
  HookScheme scheme(&eager);
  fl::ExperimentOptions options = small_options();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const fl::RoundRecord record = setup.engine->run_round();
  // Only collected clients keep their payloads past the round; the 0.9
  // collect fraction of 6 clients collects all of them.
  ASSERT_EQ(record.collected.size(), record.clients.size());
  for (const auto& c : record.clients) {
    ASSERT_EQ(c.eager.size(), 1u);
    EXPECT_EQ(c.eager[0].layer, 0u);
    EXPECT_EQ(c.eager[0].iteration, 1u);
    EXPECT_FALSE(c.eager[0].retransmitted);
    // The applied update for layer 0 is the eager snapshot.
    const auto& applied = c.applied_update.tensors[0];
    const auto& sent = c.eager[0].value;
    ASSERT_TRUE(applied.same_shape(sent));
    for (std::size_t i = 0; i < applied.numel(); ++i) {
      ASSERT_EQ(applied[i], sent[i]);
    }
    // Eager transfer happened on the uplink before the final upload.
    EXPECT_LE(c.eager[0].arrival_time, c.arrival_time);
  }
}

// Same as above but retransmitting everything: error feedback must make
// the applied update bit-identical to a run without eager transmission.
class EagerRetransmitAllPolicy : public fl::ClientPolicy {
 public:
  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    fl::IterationDecision d;
    if (view.iteration == 1) d.eager_layers = {0, 1};
    return d;
  }
  std::vector<std::size_t> select_retransmissions(
      const nn::ModelState&, const std::vector<fl::EagerRecord>& eager) override {
    std::vector<std::size_t> all;
    for (const auto& e : eager) all.push_back(e.layer);
    return all;
  }
};

TEST(RoundEngine, RetransmissionRestoresExactUpdate) {
  fl::ExperimentOptions options = small_options();

  fl::FedAvgScheme plain_scheme;
  fl::ExperimentSetup plain = fl::make_setup(options, plain_scheme);
  plain.engine->run_round();
  const std::vector<float> plain_state = plain.engine->global_state().flattened();

  EagerRetransmitAllPolicy retrans;
  HookScheme scheme(&retrans);
  fl::ExperimentSetup eager = fl::make_setup(options, scheme);
  const fl::RoundRecord record = eager.engine->run_round();
  const std::vector<float> eager_state = eager.engine->global_state().flattened();

  // Statistical path identical...
  ASSERT_EQ(plain_state.size(), eager_state.size());
  for (std::size_t i = 0; i < plain_state.size(); ++i) {
    ASSERT_EQ(plain_state[i], eager_state[i]) << "index " << i;
  }
  // ...but the system path paid for the extra transfers.
  for (const auto& c : record.clients) {
    EXPECT_EQ(c.retransmitted_layers, 2u);
  }
}

TEST(RoundEngine, EagerDuplicateRequestsIgnored) {
  // A policy asking for the same layer every iteration transmits it once.
  class SpamPolicy : public fl::ClientPolicy {
   public:
    fl::IterationDecision after_iteration(const fl::IterationView&) override {
      fl::IterationDecision d;
      d.eager_layers = {0};
      return d;
    }
  } spam;
  HookScheme scheme(&spam);
  fl::ExperimentOptions options = small_options();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const fl::RoundRecord record = setup.engine->run_round();
  for (const auto& c : record.clients) {
    EXPECT_EQ(c.eager.size(), 1u);
  }
}

TEST(RoundEngine, EagerReducesFinalUploadBytes) {
  fl::ExperimentOptions options = small_options();

  fl::FedAvgScheme plain_scheme;
  fl::ExperimentSetup plain = fl::make_setup(options, plain_scheme);
  const fl::RoundRecord plain_record = plain.engine->run_round();

  EagerLayer0Policy eager;
  HookScheme scheme(&eager);
  fl::ExperimentSetup es = fl::make_setup(options, scheme);
  const fl::RoundRecord eager_record = es.engine->run_round();

  // Same total payload (layer 0 moved earlier, not duplicated): bytes_sent
  // must match the plain run, while the *arrival* time is no later.
  for (std::size_t c = 0; c < plain_record.clients.size(); ++c) {
    EXPECT_NEAR(eager_record.clients[c].bytes_sent, plain_record.clients[c].bytes_sent,
                1e-6);
    EXPECT_LE(eager_record.clients[c].arrival_time,
              plain_record.clients[c].arrival_time + 1e-9);
  }
}

TEST(RoundEngine, ConstructionValidation) {
  fl::FedAvgScheme scheme;
  fl::ExperimentOptions options = small_options();
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  const auto build = [&](std::vector<data::Dataset> shards) {
    fl::RoundEngine(setup.model.get(), setup.cluster.get(), std::move(shards), &scheme,
                    fl::RoundEngineOptions{}, util::Rng(1));
  };
  // An empty pool and a pool larger than the cluster are rejected.
  EXPECT_THROW(build({}), std::invalid_argument);
  std::vector<data::Dataset> oversized = setup.shards;
  oversized.push_back(setup.shards.front());
  EXPECT_THROW(build(oversized), std::invalid_argument);
  // A pool shorter than the cluster is valid: clients share shards.
  std::vector<data::Dataset> short_pool(setup.shards.begin(), setup.shards.end() - 1);
  EXPECT_NO_THROW(build(short_pool));
}

}  // namespace
}  // namespace fedca
