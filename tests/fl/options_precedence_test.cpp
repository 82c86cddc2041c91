// Pins the pre-scenario precedence contract: explicit ExperimentOptions /
// explicit arguments beat the FEDCA_* environment. The scenario layer
// (fl/scenario.hpp) slots UNDER both — scenario < env < programmatic —
// so this file is the spec the env and programmatic tiers are measured
// against; fl/scenario_test.cpp covers the scenario-vs-env boundary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/session.hpp"
#include "util/thread_pool.hpp"

namespace fedca {
namespace {

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

class OptionsPrecedenceTest : public ::testing::Test {};

TEST_F(OptionsPrecedenceTest, ExplicitObsPathsBeatEnvironment) {
  const std::string tmp = ::testing::TempDir();
  ScopedEnv trace("FEDCA_TRACE", (tmp + "env_trace.json").c_str());
  ScopedEnv metrics("FEDCA_METRICS", (tmp + "env_metrics.json").c_str());
  ScopedEnv report("FEDCA_REPORT", (tmp + "env_report.jsonl").c_str());

  // make_setup builds every experiment's session from exactly this.
  const obs::SessionOptions paths = obs::resolve_outputs(
      tmp + "expl_trace.json", tmp + "expl_metrics.json", tmp + "expl_report.jsonl");
  EXPECT_EQ(paths.trace_path, tmp + "expl_trace.json");
  EXPECT_EQ(paths.metrics_path, tmp + "expl_metrics.json");
  EXPECT_EQ(paths.report_path, tmp + "expl_report.jsonl");
}

TEST_F(OptionsPrecedenceTest, EmptyObsPathsFallBackToEnvironment) {
  const std::string tmp = ::testing::TempDir();
  ScopedEnv trace("FEDCA_TRACE", (tmp + "env_trace.json").c_str());
  ScopedEnv metrics("FEDCA_METRICS", (tmp + "env_metrics.json").c_str());
  ScopedEnv report("FEDCA_REPORT", (tmp + "env_report.jsonl").c_str());

  const obs::SessionOptions paths = obs::resolve_outputs("", "", "");
  EXPECT_EQ(paths.trace_path, tmp + "env_trace.json");
  EXPECT_EQ(paths.metrics_path, tmp + "env_metrics.json");
  EXPECT_EQ(paths.report_path, tmp + "env_report.jsonl");
}

TEST_F(OptionsPrecedenceTest, NoPathsAnywhereLeavesOutputsDisarmed) {
  ScopedEnv trace("FEDCA_TRACE", nullptr);
  ScopedEnv metrics("FEDCA_METRICS", nullptr);
  ScopedEnv report("FEDCA_REPORT", nullptr);
  const obs::SessionOptions paths = obs::resolve_outputs("", "", "");
  EXPECT_TRUE(paths.trace_path.empty());
  EXPECT_TRUE(paths.metrics_path.empty());
  EXPECT_TRUE(paths.report_path.empty());
  const obs::Session session(paths);
  EXPECT_EQ(session.trace(), nullptr);
  EXPECT_EQ(session.metrics(), nullptr);
  EXPECT_EQ(session.report(), nullptr);
}

TEST_F(OptionsPrecedenceTest, ExplicitWorkerCountBeatsThreadsEnv) {
  ScopedEnv threads("FEDCA_THREADS", "3");
  // Non-zero request: the env var must not leak in.
  EXPECT_EQ(util::ThreadPool::resolve_workers(5), 5u);
  // Zero is the "ask the environment" sentinel.
  EXPECT_EQ(util::ThreadPool::resolve_workers(0), 3u);
}

TEST_F(OptionsPrecedenceTest, ZeroWorkersWithoutEnvUsesHardware) {
  ScopedEnv threads("FEDCA_THREADS", nullptr);
  EXPECT_GE(util::ThreadPool::resolve_workers(0), 1u);
}

}  // namespace
}  // namespace fedca
