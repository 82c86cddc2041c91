// Scenario DSL, FL binding: mapping onto ExperimentOptions, file
// loading, env-tier precedence, and scheme passthrough.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "fl/scenario.hpp"
#include "sim/scenario.hpp"

namespace fedca {
namespace {

using sim::scenario::ScenarioError;

constexpr const char* kMinimal = "[scenario]\nversion = 1\n";

TEST(ScenarioBinding, MinimalFileYieldsDefaults) {
  const fl::Scenario sc = fl::parse_scenario(kMinimal);
  // Defaults probe: compares against the struct's own defaults.
  // analyze:waive(scenario-hardcode)
  const fl::ExperimentOptions defaults;
  EXPECT_EQ(sc.scheme, "fedavg");
  EXPECT_FALSE(sc.async_engine);
  EXPECT_EQ(sc.options.num_clients, defaults.num_clients);
  EXPECT_EQ(sc.options.local_iterations, defaults.local_iterations);
  EXPECT_EQ(sc.options.seed, defaults.seed);
  EXPECT_EQ(sc.options.max_rounds, defaults.max_rounds);
  EXPECT_EQ(sc.options.collect_fraction, defaults.collect_fraction);
  EXPECT_EQ(sc.options.worker_threads, defaults.worker_threads);
  EXPECT_FALSE(sc.options.faults.enabled);
  EXPECT_TRUE(std::isinf(sc.options.upload_timeout));
}

TEST(ScenarioBinding, LoadMissingFileIsError) {
  try {
    fl::load_scenario_file("/nonexistent/path/x.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.file(), "/nonexistent/path/x.scn");
    EXPECT_EQ(e.line(), 0u);
  }
}

TEST(ScenarioBinding, VersionIsRequired) {
  EXPECT_THROW(fl::parse_scenario("[scenario]\nname = x\n"), ScenarioError);
  EXPECT_THROW(fl::parse_scenario("[run]\nseed = 1\n"), ScenarioError);
}

TEST(ScenarioBinding, MapsEverySection) {
  const fl::Scenario sc = fl::parse_scenario(
      "[scenario]\nversion = 1\nname = full\ndescription = all knobs\n"
      "[run]\nseed = 99\nrounds = 7\ntarget_accuracy = 0.5\n"
      "accuracy_smoothing = 2\neval_every = 3\nworkers = 4\n"
      "[model]\nkind = lstm\nclasses = 6\nnoise = 0.3\n"
      "amplitude_lo = 0.7\namplitude_hi = 1.3\n"
      "[data]\nclients = 9\ntrain_samples = 500\ntest_samples = 100\n"
      "alpha = 0.2\nbatch = 4\n"
      "[training]\nlocal_iterations = 11\nlr = 0.01\nweight_decay = 0.001\n"
      "prox_mu = 0.1\n"
      "[server]\ncollect_fraction = 0.8\nparticipation = 0.5\n"
      "upload_timeout = 12.5\n"
      "[scheme]\nname = fedprox\nfedprox_mu = 0.1\n"
      "[cluster]\nlink_latency = 0.01\nspeed_sigma = 0.4\nmin_speed = 0.2\n"
      "max_speed = 5\nbandwidth_mbps = 10\ndynamicity = false\n"
      "slowdown_lo = 1.5\nslowdown_hi = 3\n"
      "[faults]\nenabled = true\nhorizon = 100\ncrash_fraction = 0.1\n"
      "seed = 77\n"
      "[observability]\nreport = /tmp/r.jsonl\n");
  EXPECT_EQ(sc.name, "full");
  EXPECT_EQ(sc.options.seed, 99u);
  EXPECT_EQ(sc.options.max_rounds, 7u);
  EXPECT_EQ(sc.options.target_accuracy, 0.5);
  EXPECT_EQ(sc.options.accuracy_smoothing, 2u);
  EXPECT_EQ(sc.options.eval_every, 3u);
  EXPECT_EQ(sc.options.worker_threads, 4u);
  EXPECT_EQ(sc.options.model, nn::ModelKind::kLstm);
  EXPECT_EQ(sc.options.data_spec.num_classes, 6u);
  EXPECT_EQ(sc.options.data_spec.noise_stddev, 0.3);
  EXPECT_EQ(sc.options.num_clients, 9u);
  EXPECT_EQ(sc.options.train_samples, 500u);
  EXPECT_EQ(sc.options.test_samples, 100u);
  EXPECT_EQ(sc.options.dirichlet_alpha, 0.2);
  EXPECT_EQ(sc.options.batch_size, 4u);
  EXPECT_EQ(sc.options.local_iterations, 11u);
  EXPECT_EQ(sc.options.optimizer.learning_rate, 0.01);
  EXPECT_EQ(sc.options.optimizer.weight_decay, 0.001);
  EXPECT_EQ(sc.options.optimizer.prox_mu, 0.1);
  EXPECT_EQ(sc.options.collect_fraction, 0.8);
  EXPECT_EQ(sc.options.participation_fraction, 0.5);
  EXPECT_EQ(sc.options.upload_timeout, 12.5);
  EXPECT_EQ(sc.scheme, "fedprox");
  ASSERT_EQ(sc.scheme_params.size(), 1u);
  EXPECT_EQ(sc.scheme_params.at("fedprox_mu"), "0.1");
  EXPECT_EQ(sc.options.cluster.link_latency_seconds, 0.01);
  EXPECT_EQ(sc.options.cluster.heterogeneity.speed_sigma, 0.4);
  EXPECT_FALSE(sc.options.cluster.dynamicity.enabled);
  EXPECT_TRUE(sc.options.faults.enabled);
  EXPECT_EQ(sc.options.faults.horizon_seconds, 100.0);
  EXPECT_EQ(sc.options.faults.crash_fraction, 0.1);
  EXPECT_EQ(sc.options.faults.seed, 77u);
  EXPECT_EQ(sc.options.report_path, "/tmp/r.jsonl");

  const util::Config cfg = fl::scheme_config(sc);
  EXPECT_EQ(cfg.get_double("fedprox_mu", 0.0), 0.1);
}

TEST(ScenarioBinding, UnknownSchemeParamIsRejectedWithLine) {
  try {
    fl::parse_scenario("[scenario]\nversion = 1\n[scheme]\nname = fedca\n"
                       "learning_rate = 0.1\n",
                       "x.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("unknown scheme parameter"),
              std::string::npos);
  }
}

// The compact registry is the only population representation, so the key
// that used to opt into it is gone and takes the unknown-key path.
TEST(ScenarioBinding, RegistryKeyIsRejectedWithLine) {
  try {
    fl::parse_scenario("[scenario]\nversion = 1\n[population]\n"
                       "availability = true\nregistry = true\n",
                       "x.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.file(), "x.scn");
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("x.scn:5: unknown key 'registry'"),
              std::string::npos)
        << e.what();
  }
}

// Tensors hold plain vectors and there is no buffer pool to switch, so the
// key that used to switch it is gone and takes the unknown-key path.
TEST(ScenarioBinding, TensorPoolKeyIsRejectedWithLine) {
  try {
    fl::parse_scenario("[scenario]\nversion = 1\n[run]\nworkers = 2\n"
                       "tensor_pool = on\n",
                       "x.scn");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.file(), "x.scn");
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("x.scn:5: unknown key 'tensor_pool'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioBinding, AsyncSectionRequiresAsyncEngine) {
  EXPECT_THROW(
      fl::parse_scenario("[scenario]\nversion = 1\n[async]\nupdates = 5\n"),
      ScenarioError);
  const fl::Scenario sc = fl::parse_scenario(
      "[scenario]\nversion = 1\n[run]\nengine = async\n"
      "[async]\nupdates = 5\nmix = 0.4\ncycle_timeout = none\n");
  EXPECT_TRUE(sc.async_engine);
  EXPECT_EQ(sc.async_updates, 5u);
  EXPECT_EQ(sc.async.mix, 0.4);
  EXPECT_TRUE(std::isinf(sc.async.cycle_timeout));
}

TEST(ScenarioBinding, CrossFieldRangeChecks) {
  EXPECT_THROW(fl::parse_scenario("[scenario]\nversion = 1\n[model]\n"
                                  "amplitude_lo = 2\namplitude_hi = 1\n"),
               ScenarioError);
  EXPECT_THROW(fl::parse_scenario("[scenario]\nversion = 1\n[cluster]\n"
                                  "min_speed = 3\nmax_speed = 1\n"),
               ScenarioError);
  EXPECT_THROW(fl::parse_scenario("[scenario]\nversion = 1\n[cluster]\n"
                                  "slowdown_lo = 4\nslowdown_hi = 2\n"),
               ScenarioError);
}

// ---------------------------------------------------------------------------
// Precedence: scenario < env (env_overrides) < command-line overrides;
// explicit caller mutation of the bound options trivially wins.
// ---------------------------------------------------------------------------

class ScopedEnv {
 public:
  // value == nullptr unsets the variable for the scope.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

constexpr const char* kFileTier =
    "[scenario]\nversion = 1\n[run]\nworkers = 2\n"
    "[observability]\nreport = /tmp/from_file.jsonl\n";

TEST(ScenarioPrecedence, EnvOverlaysScenarioTier) {
  {
    ScopedEnv report("FEDCA_REPORT", "/tmp/from_env.jsonl");
    ScopedEnv threads("FEDCA_THREADS", "6");
    const fl::ExperimentOptions o =
        fl::parse_scenario(kFileTier, "<scenario>", fl::env_overrides()).options;
    EXPECT_EQ(o.report_path, "/tmp/from_env.jsonl");
    EXPECT_EQ(o.worker_threads, 6u);
  }
  // Without the env tier the file's values stand.
  ScopedEnv report("FEDCA_REPORT", nullptr);
  ScopedEnv threads("FEDCA_THREADS", nullptr);
  EXPECT_TRUE(fl::env_overrides().empty());
  const fl::ExperimentOptions o = fl::parse_scenario(kFileTier).options;
  EXPECT_EQ(o.report_path, "/tmp/from_file.jsonl");
  EXPECT_EQ(o.worker_threads, 2u);
}

TEST(ScenarioPrecedence, CommandLineOverridesBeatEnv) {
  ScopedEnv report("FEDCA_REPORT", "/tmp/from_env.jsonl");
  ScopedEnv threads("FEDCA_THREADS", "6");
  std::vector<std::string> overrides = fl::env_overrides();
  overrides.push_back("run.workers=3");
  overrides.push_back("observability.report=/tmp/from_cli.jsonl");
  const fl::ExperimentOptions o =
      fl::parse_scenario(kFileTier, "<scenario>", overrides).options;
  EXPECT_EQ(o.report_path, "/tmp/from_cli.jsonl");
  EXPECT_EQ(o.worker_threads, 3u);
}

TEST(ScenarioPrecedence, MalformedThreadsEnvIsIgnored) {
  for (const char* bad : {"not-a-number", "-1", "5000"}) {
    ScopedEnv threads("FEDCA_THREADS", bad);
    const fl::ExperimentOptions o =
        fl::parse_scenario(kFileTier, "<scenario>", fl::env_overrides()).options;
    EXPECT_EQ(o.worker_threads, 2u) << "FEDCA_THREADS=" << bad;
  }
}

}  // namespace
}  // namespace fedca
