// Chaos/property suite: full experiments under seeded fault schedules.
//
// The invariants worth money here:
//   * a zero-fault schedule (enabled but all rates 0) is bit-identical to
//     a run with the fault layer disabled — the injection machinery is
//     free when nothing fires;
//   * same seed + same fault schedule => bit-identical trajectories;
//   * under arbitrary chaos every round still terminates at a finite,
//     monotone virtual time, survivor aggregation weights sum to 1, and
//     failed clients are never collected;
//   * the async engine skips dead clients, never bumps the version on a
//     lost cycle, and refuses to spin when nobody is left alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedca_scheme.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "obs/session.hpp"
#include "sim/faults.hpp"

namespace fedca {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  // Per-test output files in the temp dir, armed through the run's
  // options or a session; run_experiment writes them before returning.
  static std::string temp_path(const char* suffix) {
    return ::testing::TempDir() + "robustness_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() + suffix;
  }
  static std::string metrics_path() { return temp_path("_metrics.csv"); }
  void TearDown() override {
    std::remove(metrics_path().c_str());
    std::remove(temp_path("_trace.json").c_str());
  }

  // `name`'s value in the metrics CSV at metrics_path(); 0 when absent.
  double counter_value(const std::string& name) const {
    std::ifstream in(metrics_path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(name + ",", 0) != 0) continue;
      std::istringstream row(line);
      std::string field;
      std::getline(row, field, ',');  // name
      std::getline(row, field, ',');  // kind
      std::getline(row, field, ',');  // value
      return std::stod(field);
    }
    return 0.0;
  }
};

// The historical tiny() + chaos_faults() setup now lives in
// scenarios/chaos.scn (also golden-pinned by tools_golden_scenario_chaos).
// Scenario tier only — no resolve_options() — so the tests stay hermetic
// from FEDCA_* env.
const fl::Scenario& chaos_scenario() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/chaos.scn");
  return scenario;
}

// Small but real experiment (mirrors experiment_test's tiny()). Faults
// are disarmed here; each test installs the schedule it wants.
fl::ExperimentOptions tiny() {
  fl::ExperimentOptions options = chaos_scenario().options;
  options.faults = sim::FaultScheduleOptions{};
  return options;
}

sim::FaultScheduleOptions chaos_faults(std::uint64_t seed) {
  sim::FaultScheduleOptions f = chaos_scenario().options.faults;
  f.seed = seed;
  return f;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every float the figures consume, compared bit-for-bit.
void expect_identical(const fl::ExperimentResult& a, const fl::ExperimentResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_TRUE(bits_equal(a.final_accuracy, b.final_accuracy));
  EXPECT_TRUE(bits_equal(a.total_time, b.total_time));
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const fl::RoundSummary& ra = a.rounds[r];
    const fl::RoundSummary& rb = b.rounds[r];
    EXPECT_TRUE(bits_equal(ra.start_time, rb.start_time));
    EXPECT_TRUE(bits_equal(ra.end_time, rb.end_time));
    ASSERT_EQ(ra.clients.size(), rb.clients.size());
    for (std::size_t i = 0; i < ra.clients.size(); ++i) {
      const fl::ClientRoundSummary& ca = ra.clients[i];
      const fl::ClientRoundSummary& cb = rb.clients[i];
      EXPECT_EQ(ca.client_id, cb.client_id);
      EXPECT_EQ(ca.iterations_run, cb.iterations_run);
      EXPECT_EQ(ca.failed, cb.failed);
      EXPECT_EQ(ca.collected, cb.collected);
      EXPECT_TRUE(bits_equal(ca.arrival_time, cb.arrival_time));
      EXPECT_TRUE(bits_equal(ca.collected_weight, cb.collected_weight));
    }
  }
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_TRUE(bits_equal(a.curve[i].accuracy, b.curve[i].accuracy));
    EXPECT_TRUE(bits_equal(a.curve[i].virtual_time, b.curve[i].virtual_time));
  }
}

// The invariants every chaos run must satisfy regardless of schedule.
void expect_invariants(const fl::ExperimentResult& result) {
  double prev_end = 0.0;
  for (const fl::RoundSummary& round : result.rounds) {
    // Termination at finite, monotone virtual times.
    ASSERT_TRUE(std::isfinite(round.start_time));
    ASSERT_TRUE(std::isfinite(round.end_time));
    EXPECT_GE(round.end_time, round.start_time);
    EXPECT_TRUE(bits_equal(round.start_time, prev_end));
    prev_end = round.end_time;

    double weight_sum = 0.0;
    std::size_t collected = 0;
    for (const fl::ClientRoundSummary& c : round.clients) {
      if (c.collected) {
        ++collected;
        weight_sum += c.collected_weight;
        EXPECT_FALSE(c.failed) << "failed client aggregated in round "
                               << round.round_index;
        EXPECT_TRUE(std::isfinite(c.arrival_time));
      } else {
        EXPECT_EQ(c.collected_weight, 0.0);
      }
    }
    if (collected > 0) {
      EXPECT_NEAR(weight_sum, 1.0, 1e-9);
    }
  }
  for (const fl::EvalPoint& p : result.curve) {
    EXPECT_TRUE(std::isfinite(p.accuracy));
    EXPECT_TRUE(std::isfinite(p.virtual_time));
  }
}

TEST_F(RobustnessTest, ZeroFaultScheduleIsBitIdenticalToDisabled) {
  fl::ExperimentOptions off = tiny();
  fl::ExperimentOptions zero = tiny();
  zero.faults.enabled = true;  // armed, but every rate/probability is 0

  fl::FedAvgScheme scheme_a;
  const fl::ExperimentResult a = fl::run_experiment(off, scheme_a);
  fl::FedAvgScheme scheme_b;
  const fl::ExperimentResult b = fl::run_experiment(zero, scheme_b);
  expect_identical(a, b);
  // Nothing fired, so nothing may have been scheduled either.
  EXPECT_TRUE(sim::FaultSchedule::generate(zero.faults, off.num_clients).empty());
}

TEST_F(RobustnessTest, SameSeedChaosRunsAreBitIdentical) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    fl::ExperimentOptions options = tiny();
    options.faults = chaos_faults(seed);
    fl::FedAvgScheme scheme_a;
    const fl::ExperimentResult a = fl::run_experiment(options, scheme_a);
    fl::FedAvgScheme scheme_b;
    const fl::ExperimentResult b = fl::run_experiment(options, scheme_b);
    expect_identical(a, b);
  }
}

TEST_F(RobustnessTest, ChaosInvariantsHoldAcrossTwentySeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fl::ExperimentOptions options = tiny();
    options.max_rounds = 2;
    options.faults = chaos_faults(seed);
    fl::FedAvgScheme scheme;
    const fl::ExperimentResult result = fl::run_experiment(options, scheme);
    ASSERT_EQ(result.rounds.size(), options.max_rounds) << "seed " << seed;
    expect_invariants(result);
  }
}

TEST_F(RobustnessTest, ChaosInvariantsHoldForFedCa) {
  for (const std::uint64_t seed : {3ull, 7ull, 21ull}) {
    fl::ExperimentOptions options = tiny();
    options.faults = chaos_faults(seed);
    core::FedCaScheme scheme{core::FedCaOptions{}, core::FedCaVariant::kV3, seed};
    const fl::ExperimentResult result = fl::run_experiment(options, scheme);
    ASSERT_EQ(result.rounds.size(), options.max_rounds) << "seed " << seed;
    expect_invariants(result);
  }
}

TEST_F(RobustnessTest, CrashingQuarterOfClientsCompletesWithCountersVisible) {
  fl::ExperimentOptions options = tiny();
  options.metrics_path = metrics_path();
  options.num_clients = 8;
  options.faults.enabled = true;
  options.faults.crash_fraction = 0.25;
  // Crashes land within the first virtual second, i.e. mid-run for sure.
  options.faults.horizon_seconds = 1.0;
  options.faults.seed = 9;

  fl::FedAvgScheme scheme;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  ASSERT_EQ(result.rounds.size(), options.max_rounds);
  expect_invariants(result);

  // 2 of 8 clients crash, each counted exactly once across mid-round
  // failure and next-round exclusion.
  EXPECT_EQ(counter_value("faults.crashes"), 2.0);
  // Crashed clients leave the population for later rounds.
  const fl::RoundSummary& last = result.rounds.back();
  EXPECT_EQ(last.clients.size(), 6u);
  std::size_t failed_total = 0;
  for (const fl::RoundSummary& round : result.rounds) {
    for (const fl::ClientRoundSummary& c : round.clients) {
      if (c.failed) ++failed_total;
    }
  }
  EXPECT_EQ(failed_total, 2u);
}

TEST_F(RobustnessTest, AllClientsCrashingStillTerminates) {
  fl::ExperimentOptions options = tiny();
  options.faults.enabled = true;
  options.faults.crash_fraction = 1.0;
  options.faults.horizon_seconds = 1e-3;
  options.faults.seed = 4;

  fl::FedAvgScheme scheme;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  ASSERT_EQ(result.rounds.size(), options.max_rounds);
  expect_invariants(result);
  for (const fl::RoundSummary& round : result.rounds) {
    for (const fl::ClientRoundSummary& c : round.clients) {
      EXPECT_FALSE(c.collected);
    }
  }
  // Once everyone is crashed the rounds are empty.
  EXPECT_TRUE(result.rounds.back().clients.empty());
}

TEST_F(RobustnessTest, UploadTimeoutZeroYieldsEmptyRoundsAtRoundStart) {
  fl::ExperimentOptions options = tiny();
  options.metrics_path = metrics_path();
  options.max_rounds = 2;
  options.upload_timeout = 0.0;  // every arrival is late

  fl::FedAvgScheme scheme;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const fl::RoundSummary& round : result.rounds) {
    // The cut caps the round end at its start.
    EXPECT_TRUE(bits_equal(round.end_time, round.start_time));
    for (const fl::ClientRoundSummary& c : round.clients) {
      EXPECT_FALSE(c.collected);
      EXPECT_FALSE(c.failed);  // timed out, not faulted
    }
  }
  EXPECT_EQ(counter_value("engine.upload_timeouts"),
            static_cast<double>(2 * options.num_clients));
  EXPECT_EQ(counter_value("engine.rounds_empty"), 2.0);
}

TEST_F(RobustnessTest, UploadTimeoutKeepsOnlySurvivorsAndRenormalizes) {
  // Learn the fault-free arrival times, then re-run with a timeout placed
  // between the 2nd and 3rd arrival of round 0.
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 1;
  fl::FedAvgScheme probe;
  const fl::ExperimentResult base = fl::run_experiment(options, probe);
  std::vector<double> arrivals;
  for (const fl::ClientRoundSummary& c : base.rounds[0].clients) {
    arrivals.push_back(c.arrival_time - base.rounds[0].start_time);
  }
  std::sort(arrivals.begin(), arrivals.end());
  ASSERT_GE(arrivals.size(), 3u);
  options.upload_timeout = 0.5 * (arrivals[1] + arrivals[2]);

  fl::FedAvgScheme scheme;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  double weight_sum = 0.0;
  std::size_t collected = 0;
  for (const fl::ClientRoundSummary& c : result.rounds[0].clients) {
    if (c.collected) {
      ++collected;
      weight_sum += c.collected_weight;
      EXPECT_LE(c.arrival_time - result.rounds[0].start_time,
                options.upload_timeout);
    }
  }
  EXPECT_EQ(collected, 2u);
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

// A scheme whose policy eagerly transmits layer 0 after the first
// iteration — makes eager-loss recovery deterministic to observe.
class EagerProbeScheme : public fl::Scheme {
 public:
  std::string name() const override { return "eager-probe"; }
  void bind(std::size_t num_clients, std::size_t nominal_iterations) override {
    fl::Scheme::bind(num_clients, nominal_iterations);
    policies_.resize(num_clients);
  }
  fl::ClientPolicy& client_policy(std::size_t client_id) override {
    return policies_.at(client_id);
  }

 private:
  class Policy : public fl::ClientPolicy {
    fl::IterationDecision after_iteration(const fl::IterationView& view) override {
      fl::IterationDecision decision;
      if (view.iteration == 1) decision.eager_layers.push_back(0);
      return decision;
    }
  };
  std::vector<Policy> policies_;
};

TEST_F(RobustnessTest, LostEagerTransmissionsAreAlwaysRetransmitted) {
  fl::ExperimentOptions options = tiny();
  options.metrics_path = metrics_path();
  options.max_rounds = 2;
  options.faults.enabled = true;
  options.faults.eager_loss_probability = 1.0;  // every eager payload lost

  EagerProbeScheme scheme;
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  std::size_t eager_total = 0;
  for (const fl::RoundSummary& round : result.rounds) {
    for (const fl::ClientRoundSummary& c : round.clients) {
      for (const auto& e : c.eager) {
        ++eager_total;
        EXPECT_TRUE(e.retransmitted)
            << "lost eager layer not recovered (client " << c.client_id << ")";
      }
    }
  }
  EXPECT_EQ(eager_total, 2u * options.num_clients);
  EXPECT_EQ(counter_value("faults.eager_lost"), static_cast<double>(eager_total));
  EXPECT_EQ(counter_value("engine.fault_retransmissions"),
            static_cast<double>(eager_total));
}

// ---------------------------------------------------------------------------
// Async engine under faults. The fixture installs the injector BEFORE the
// engine exists: the AsyncEngine constructor launches every client at t=0.
// ---------------------------------------------------------------------------

struct AsyncChaosFixture {
  std::unique_ptr<nn::Classifier> model;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<fl::AsyncEngine> engine;
};

fl::AsyncEngineOptions async_fixture_options() {
  fl::AsyncEngineOptions options;
  options.local_iterations = 4;
  options.batch_size = 8;
  options.optimizer = {0.05, 0.0, 0.0};
  return options;
}

AsyncChaosFixture make_async_with_faults(
    std::uint64_t seed, std::vector<sim::FaultEvent> events,
    fl::AsyncEngineOptions options = async_fixture_options(),
    obs::Session* session = nullptr) {
  constexpr std::size_t clients = 5;
  AsyncChaosFixture fx;
  util::Rng root(seed);
  util::Rng model_rng = root.fork(1);
  fx.model = std::make_unique<nn::Classifier>(
      nn::build_model(nn::ModelKind::kCnn, model_rng));

  data::SyntheticSpec spec;
  spec.noise_stddev = 0.6;
  util::Rng data_rng = root.fork(2);
  data::SyntheticTask task(nn::ModelKind::kCnn, spec, data_rng);
  util::Rng train_rng = root.fork(3);
  data::Dataset train = task.sample(300, train_rng);

  data::PartitionOptions part;
  part.num_clients = clients;
  part.num_classes = spec.num_classes;
  part.alpha = 0.5;
  util::Rng part_rng = root.fork(5);
  auto shards = data::dirichlet_partition(train, part, part_rng);

  sim::ClusterOptions copts;
  copts.num_clients = clients;
  util::Rng cluster_rng = root.fork(6);
  fx.cluster = std::make_unique<sim::Cluster>(copts, cluster_rng);
  fx.cluster->install_faults(std::make_shared<const sim::FaultInjector>(
      sim::FaultSchedule(std::move(events)), clients));

  fx.engine = std::make_unique<fl::AsyncEngine>(fx.model.get(), fx.cluster.get(),
                                                std::move(shards), options,
                                                root.fork(7), session);
  return fx;
}

TEST_F(RobustnessTest, AsyncCrashedClientNeverContributes) {
  AsyncChaosFixture fx = make_async_with_faults(
      21, {{sim::FaultKind::kCrash, /*client=*/0, /*start=*/0.0, 0.0, 1.0}});
  EXPECT_EQ(fx.engine->live_clients(), 4u);
  const auto records = fx.engine->run_updates(15);
  ASSERT_EQ(records.size(), 15u);
  for (const auto& r : records) {
    EXPECT_NE(r.client_id, 0u);
    EXPECT_FALSE(r.lost);
  }
  EXPECT_EQ(fx.engine->global_version(), 15u);
}

TEST_F(RobustnessTest, AsyncMidCycleCrashCountedOnce) {
  // Client 0 crashes inside its first cycle: the cycle is lost, and the
  // relaunch finds the client permanently dead. Both events are the same
  // crash, so it is counted and traced once.
  obs::SessionOptions outputs;
  outputs.metrics_path = metrics_path();
  outputs.trace_path = temp_path("_trace.json");
  obs::Session session(outputs);
  AsyncChaosFixture fx = make_async_with_faults(
      24, {{sim::FaultKind::kCrash, /*client=*/0, /*start=*/1e-3, 0.0, 1.0}},
      async_fixture_options(), &session);
  const auto records = fx.engine->run_updates(10);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().client_id, 0u);
  EXPECT_TRUE(records.front().lost);
  EXPECT_EQ(fx.engine->live_clients(), 4u);
  EXPECT_EQ(session.metrics()->counter("faults.crashes").value(), 1.0);
  std::size_t crash_instants = 0;
  for (const obs::TraceEvent& e : session.trace()->snapshot_events()) {
    if (e.name == "fault.crash") ++crash_instants;
  }
  EXPECT_EQ(crash_instants, 1u);
}

// FNV-1a over every update record field and the final global model bytes,
// so one 64-bit value pins a whole async run.
std::uint64_t async_run_digest(const std::vector<fl::AsyncUpdateRecord>& records,
                               const nn::ModelState& global) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_u64 = [&mix](std::uint64_t v) { mix(&v, sizeof(v)); };
  mix_u64(records.size());
  for (const fl::AsyncUpdateRecord& r : records) {
    mix_u64(r.client_id);
    mix(&r.arrival_time, sizeof(r.arrival_time));
    mix_u64(r.downloaded_version);
    mix_u64(r.applied_version);
    mix_u64(r.staleness);
    mix(&r.weight, sizeof(r.weight));
    mix_u64(r.lost ? 1 : 0);
  }
  const std::vector<float> state = global.flattened();
  mix_u64(state.size());
  mix(state.data(), state.size() * sizeof(float));
  return h;
}

// Digest of the run below, computed at commit b8e1b86 (before both engines
// trained clients through fl::ClientTrainer). Identical for every worker
// count and speculation cap.
constexpr std::uint64_t kAsyncChaosDigest = 0xe253dccd77952682ULL;

TEST_F(RobustnessTest, AsyncChaosDigestAcrossWorkersAndSpeculation) {
  sim::FaultScheduleOptions f = chaos_faults(43);
  // Squeeze the chaos schedule into the run's ~10 virtual seconds so every
  // fault class fires mid-run (the scenario's horizon is 4000 s).
  f.horizon_seconds = 8.0;
  f.dropout_mean_seconds = 0.5;
  f.slowdown_mean_seconds = 1.0;
  f.link_fault_mean_seconds = 0.5;
  const std::vector<sim::FaultEvent> events =
      sim::FaultSchedule::generate(f, 5).events();
  for (const std::size_t cap : {0u, 2u}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      fl::AsyncEngineOptions options = async_fixture_options();
      options.worker_threads = workers;
      options.speculative_cap = cap;
      AsyncChaosFixture fx = make_async_with_faults(43, events, options);
      const auto records = fx.engine->run_updates(60);
      const std::string what =
          "cap=" + std::to_string(cap) + " workers=" + std::to_string(workers);
      // The schedule must actually bite: cycles are lost and a client dies.
      EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                              [](const fl::AsyncUpdateRecord& r) { return r.lost; }))
          << what;
      EXPECT_LT(fx.engine->live_clients(), 5u) << what;
      EXPECT_EQ(async_run_digest(records, fx.engine->global_state()), kAsyncChaosDigest)
          << what << " digest 0x" << std::hex
          << async_run_digest(records, fx.engine->global_state());
    }
  }
}

TEST_F(RobustnessTest, AsyncDropoutLosesCycleWithoutVersionBump) {
  // Client 0 goes offline almost immediately and stays out for the whole
  // run: its first cycle is abandoned and never relaunched in-horizon.
  AsyncChaosFixture fx = make_async_with_faults(
      22, {{sim::FaultKind::kDropout, 0, 1e-3, 1e6, 1.0}});
  const auto records = fx.engine->run_updates(12);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().client_id, 0u);
  EXPECT_TRUE(records.front().lost);
  EXPECT_EQ(records.front().weight, 0.0);
  std::size_t applied = 0;
  for (const auto& r : records) {
    if (!r.lost) {
      ++applied;
      EXPECT_NE(r.client_id, 0u);
    }
  }
  EXPECT_EQ(fx.engine->global_version(), applied);
}

TEST_F(RobustnessTest, AsyncAllDeadStopsInsteadOfSpinning) {
  std::vector<sim::FaultEvent> events;
  for (std::size_t c = 0; c < 5; ++c) {
    events.push_back({sim::FaultKind::kCrash, c, 0.0, 0.0, 1.0});
  }
  AsyncChaosFixture fx = make_async_with_faults(23, std::move(events));
  EXPECT_EQ(fx.engine->live_clients(), 0u);
  EXPECT_TRUE(fx.engine->run_updates(5).empty());
  EXPECT_THROW(fx.engine->step(), std::runtime_error);
}

TEST_F(RobustnessTest, AsyncChaosScheduleIsDeterministic) {
  auto run = [] {
    sim::FaultScheduleOptions f = chaos_faults(31);
    f.eager_loss_probability = 0.0;
    f.eager_truncate_probability = 0.0;
    AsyncChaosFixture fx = make_async_with_faults(
        31, sim::FaultSchedule::generate(f, 5).events());
    return fx.engine->run_updates(20);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client_id, b[i].client_id);
    EXPECT_EQ(a[i].lost, b[i].lost);
    EXPECT_TRUE(bits_equal(a[i].arrival_time, b[i].arrival_time));
    EXPECT_TRUE(bits_equal(a[i].weight, b[i].weight));
  }
}

// ---------------------------------------------------------------------------
// Trace contract: fault/recovery instants pass tools/check_trace.py.
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, FaultTraceValidatesWithCheckTrace) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string trace_path = ::testing::TempDir() + "robustness_trace.json";
  fl::ExperimentOptions options = tiny();
  options.num_clients = 6;
  options.max_rounds = 2;
  options.trace_path = trace_path;
  options.faults.enabled = true;
  options.faults.crash_fraction = 0.5;
  options.faults.horizon_seconds = 1e-3;  // 3 crashes strike in round 0
  options.faults.seed = 2;
  {
    fl::FedAvgScheme scheme;
    const fl::ExperimentResult result = fl::run_experiment(options, scheme);
    expect_invariants(result);
  }  // run_experiment returned: the trace is complete on disk

  const std::string cmd = std::string("python3 ") + FEDCA_SOURCE_DIR +
                          "/tools/check_trace.py " + trace_path +
                          " --expect fault.crash"
                          " --expect recovery.partial_aggregation > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::remove(trace_path.c_str());
}

TEST_F(RobustnessTest, InjectedCrashDumpsTraceBeforeFinalFlush) {
  // The crash dump, not the session's final flush, must put the trace on
  // disk: run one round through make_setup and read the file while the
  // setup (and so its session) is still alive.
  const std::string trace_path = ::testing::TempDir() + "robustness_crash_dump.json";
  std::remove(trace_path.c_str());
  fl::ExperimentOptions options = tiny();
  options.num_clients = 6;
  options.faults.enabled = true;
  options.faults.crash_fraction = 0.5;
  options.faults.horizon_seconds = 1e-3;  // 3 crashes strike in round 0
  options.faults.seed = 2;
  options.trace_path = trace_path;
  {
    fl::FedAvgScheme scheme;
    fl::ExperimentSetup setup = fl::make_setup(options, scheme);
    setup.engine->run_round();

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good()) << "no crash dump at " << trace_path;
    std::ostringstream dump;
    dump << in.rdbuf();
    EXPECT_NE(dump.str().find("\"fault.crash\""), std::string::npos);
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace fedca
