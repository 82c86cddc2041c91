// obs::Session: per-thread installation, flush on destruction, and the
// per-experiment contract — each run's trace, metrics and report describe
// that run alone, and a run that throws still leaves valid files.
#include "obs/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "fl/scheme.hpp"

namespace fedca {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "session_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Scenario tier only (no resolve_options()); the outputs each test needs
// are set explicitly, so they win over any FEDCA_* environment.
fl::ExperimentOptions tiny() {
  static const fl::Scenario scenario = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/faultfree.scn");
  return scenario.options;
}

// Value column of `name` in a metrics CSV; NaN when absent.
double metric(const std::string& csv, const std::string& name) {
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ",", 0) != 0) continue;
    std::istringstream row(line);
    std::string field;
    for (int column = 0; column < 3; ++column) std::getline(row, field, ',');
    return std::stod(field);
  }
  return std::nan("");
}

// pid -> name of every process_name metadata event in a Chrome trace (one
// event per line, as TraceCollector writes it).
std::map<int, std::string> process_names(const std::string& json) {
  static const std::string kMeta = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
  static const std::string kName = "\"args\":{\"name\":\"";
  std::map<int, std::string> names;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kMeta, 0) != 0) continue;
    const std::size_t name = line.find(kName) + kName.size();
    names[std::stoi(line.substr(kMeta.size()))] =
        line.substr(name, line.find('"', name) - name);
  }
  return names;
}

// Round indices of the report's round lines, in file order.
std::vector<int> report_rounds(const std::string& jsonl) {
  static const std::string kRound = "{\"type\":\"round\",\"round\":";
  std::vector<int> rounds;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kRound, 0) == 0) rounds.push_back(std::stoi(line.substr(kRound.size())));
  }
  return rounds;
}

class SessionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : {"trace.json", "metrics.csv", "report.jsonl"}) {
      std::remove(temp_path(name).c_str());
    }
  }
  static obs::SessionOptions all_outputs() {
    obs::SessionOptions outputs;
    outputs.trace_path = temp_path("trace.json");
    outputs.metrics_path = temp_path("metrics.csv");
    outputs.report_path = temp_path("report.jsonl");
    return outputs;
  }
};

TEST_F(SessionTest, ScopeInstallsAndRestoresTheCurrentSession) {
  EXPECT_EQ(obs::current(), nullptr);
  obs::Session outer(all_outputs());
  obs::Session disarmed{obs::SessionOptions{}};
  {
    const obs::SessionScope a(&outer);
    EXPECT_EQ(obs::current(), &outer);
    EXPECT_EQ(obs::current_trace(), outer.trace());
    EXPECT_EQ(obs::current_metrics(), outer.metrics());
    EXPECT_EQ(obs::current_report(), outer.report());
    {
      const obs::SessionScope b(&disarmed);
      EXPECT_EQ(obs::current(), &disarmed);
      EXPECT_EQ(obs::current_trace(), nullptr);
      EXPECT_EQ(obs::current_metrics(), nullptr);
      EXPECT_EQ(obs::current_report(), nullptr);
    }
    EXPECT_EQ(obs::current(), &outer);
    EXPECT_EQ(obs::current_metrics(), outer.metrics());
  }
  EXPECT_EQ(obs::current(), nullptr);
}

TEST_F(SessionTest, DestructorWritesEveryArmedOutput) {
  {
    obs::Session session(all_outputs());
    const obs::SessionScope scope(&session);
    FEDCA_MCOUNT("t.count", 3.0);
    { FEDCA_WALL_SPAN("t.span"); }
    session.report()->append(obs::AsyncUpdateReport{});
  }
  EXPECT_EQ(metric(slurp(temp_path("metrics.csv")), "t.count"), 3.0);
  EXPECT_NE(slurp(temp_path("trace.json")).find("\"t.span\""), std::string::npos);
  EXPECT_NE(slurp(temp_path("report.jsonl")).find("\"type\":\"async_update\""),
            std::string::npos);
}

// Regression: two experiments in one process with the same output paths.
// Each file must describe only the run that just finished — when the
// outputs were process-wide, the second run's metrics counted both runs'
// rounds, its trace held both schemes' processes with pids counting on,
// and its report restarted at round 0 mid-file.
TEST_F(SessionTest, TwoExperimentsInOneProcessWriteSeparateOutputs) {
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 2;
  const obs::SessionOptions outputs = all_outputs();
  options.trace_path = outputs.trace_path;
  options.metrics_path = outputs.metrics_path;
  options.report_path = outputs.report_path;

  fl::FedAvgScheme fedavg;
  fl::FedProxScheme fedprox;
  for (fl::Scheme* scheme : {static_cast<fl::Scheme*>(&fedavg),
                             static_cast<fl::Scheme*>(&fedprox)}) {
    const std::string prefix = scheme->name() + "/";
    const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
    ASSERT_EQ(result.rounds.size(), options.max_rounds);

    const std::string csv = slurp(outputs.metrics_path);
    EXPECT_EQ(metric(csv, "experiment.rounds"), 2.0) << prefix;
    EXPECT_EQ(metric(csv, "engine.rounds"), metric(csv, "experiment.rounds")) << prefix;

    const std::map<int, std::string> names = process_names(slurp(outputs.trace_path));
    ASSERT_GT(names.size(), 1u) << prefix;
    EXPECT_EQ(names.begin()->first, obs::kWallClockPid);
    EXPECT_EQ(std::next(names.begin())->first, 1) << "pids restart per run";
    for (const auto& [pid, name] : names) {
      if (pid == static_cast<int>(obs::kWallClockPid)) continue;
      EXPECT_EQ(name.rfind(prefix, 0), 0u) << "pid " << pid << " is " << name;
    }

    EXPECT_EQ(report_rounds(slurp(outputs.report_path)), (std::vector<int>{0, 1}))
        << prefix;
  }
}

// Plans round 0, then throws while planning round 1.
class ThrowingScheme : public fl::FedAvgScheme {
 public:
  fl::RoundPlan plan_round(std::size_t round_index) override {
    if (round_index == 1) throw std::runtime_error("scheme failed in round 1");
    return fl::FedAvgScheme::plan_round(round_index);
  }
};

TEST_F(SessionTest, ExperimentThatThrowsStillLeavesValidOutputs) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  fl::ExperimentOptions options = tiny();
  options.max_rounds = 3;
  const obs::SessionOptions outputs = all_outputs();
  options.trace_path = outputs.trace_path;
  options.report_path = outputs.report_path;
  ThrowingScheme scheme;
  EXPECT_THROW(fl::run_experiment(options, scheme), std::runtime_error);

  // The unwinding session wrote the files; nothing waits for process exit.
  const std::string tools = std::string("python3 ") + FEDCA_SOURCE_DIR + "/tools/";
  const std::string check_trace = tools + "check_trace.py " + outputs.trace_path +
                                  " --expect round --expect compute > /dev/null";
  EXPECT_EQ(std::system(check_trace.c_str()), 0) << check_trace;
  const std::string check_report =
      tools + "report.py " + outputs.report_path + " --summary > /dev/null";
  EXPECT_EQ(std::system(check_report.c_str()), 0) << check_report;
  EXPECT_EQ(report_rounds(slurp(outputs.report_path)), (std::vector<int>{0}));
}

}  // namespace
}  // namespace fedca
