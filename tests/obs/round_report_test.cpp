// RoundReport pipeline: derived-field computation, deterministic JSONL
// serialization, the writer, and the engines' emission paths into their
// session's report.
#include "obs/round_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "fl/scheme.hpp"

namespace fedca {
namespace {

class RoundReportTest : public ::testing::Test {};

obs::ClientRoundReport client(std::size_t id, const std::string& outcome,
                              double duration, double weight = 0.0) {
  obs::ClientRoundReport c;
  c.client_id = id;
  c.outcome = outcome;
  c.duration = duration;
  c.weight = weight;
  return c;
}

TEST_F(RoundReportTest, FinalizeTalliesOutcomesAndPercentiles) {
  obs::RoundReport report;
  report.round_index = 3;
  report.start_time = 10.0;
  report.end_time = 14.0;
  report.deadline = 3.0;
  report.clients.push_back(client(0, "collected", 1.0, 0.25));
  report.clients.push_back(client(1, "collected", 2.0, 0.75));
  report.clients.push_back(client(2, "shed", 3.5));
  report.clients.push_back(client(3, "crashed", obs::kNoTime));
  report.clients.push_back(client(4, "dropout", obs::kNoTime));
  report.clients.push_back(client(5, "timed_out", 4.0));
  report.clients[0].early_stopped = true;
  report.clients[0].eager_layers = 3;
  report.clients[0].retransmitted_layers = 1;

  obs::finalize_round_report(report);
  EXPECT_EQ(report.collected, 2u);
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(report.crashed, 1u);
  EXPECT_EQ(report.dropout, 1u);
  EXPECT_EQ(report.timed_out, 1u);
  EXPECT_EQ(report.link_outage, 0u);
  EXPECT_EQ(report.early_stops, 1u);
  EXPECT_EQ(report.eager_layers, 3u);
  EXPECT_EQ(report.retransmitted_layers, 1u);
  // Realized durations: {1.0, 2.0, 3.5, 4.0} (never-arrived excluded).
  EXPECT_DOUBLE_EQ(report.realized_p50, 2.0);
  EXPECT_DOUBLE_EQ(report.realized_p90, 4.0);
  EXPECT_DOUBLE_EQ(report.realized_max, 4.0);
  // 4 finite durations -> 1 straggler (the slowest), threshold = its time.
  EXPECT_EQ(report.stragglers, 1u);
  EXPECT_TRUE(report.clients[5].straggler);
  EXPECT_DOUBLE_EQ(report.straggler_threshold, 4.0);
  // Deadline attribution: 3.5 and 4.0 exceed T_R = 3.0.
  EXPECT_TRUE(report.deadline_overrun);
  EXPECT_FALSE(report.clients[1].past_deadline);
  EXPECT_TRUE(report.clients[2].past_deadline);
  EXPECT_TRUE(report.clients[5].past_deadline);
}

TEST_F(RoundReportTest, StragglerDecileRoundsUpAndBreaksTiesByClientId) {
  obs::RoundReport report;
  for (std::size_t i = 0; i < 12; ++i) {
    report.clients.push_back(client(i, "collected", 1.0, 1.0 / 12.0));
  }
  obs::finalize_round_report(report);
  // ceil(12/10) = 2 stragglers; all durations tie, so the HIGHEST client
  // ids are spared: ties resolve toward flagging lower ids.
  EXPECT_EQ(report.stragglers, 2u);
  EXPECT_TRUE(report.clients[0].straggler);
  EXPECT_TRUE(report.clients[1].straggler);
  EXPECT_FALSE(report.clients[11].straggler);
}

TEST_F(RoundReportTest, JsonLinesAreDeterministicWithNullForNonFinite) {
  obs::RoundReport report;
  report.round_index = 1;
  report.start_time = 0.5;
  report.end_time = 2.5;
  report.clients.push_back(client(4, "crashed", obs::kNoTime));
  obs::finalize_round_report(report);
  const std::string line = obs::to_json_line(report);
  EXPECT_NE(line.find("\"type\":\"round\""), std::string::npos);
  EXPECT_NE(line.find("\"deadline\":null"), std::string::npos);
  EXPECT_NE(line.find("\"duration\":null"), std::string::npos);
  EXPECT_NE(line.find("\"outcome\":\"crashed\""), std::string::npos);
  EXPECT_EQ(line, obs::to_json_line(report)) << "serialization must be stable";

  obs::AsyncUpdateReport update;
  update.update_index = 7;
  update.client_id = 2;
  update.arrival_time = 1.25;
  update.staleness = 3;
  update.weight = 0.15;
  const std::string async_line = obs::to_json_line(update);
  EXPECT_NE(async_line.find("\"type\":\"async_update\""), std::string::npos);
  EXPECT_NE(async_line.find("\"staleness\":3"), std::string::npos);
  EXPECT_NE(async_line.find("\"outcome\":\"applied\""), std::string::npos);
}

TEST_F(RoundReportTest, WriterAppendsLinesToDiskImmediately) {
  const std::string path =
      ::testing::TempDir() + "/fedca_round_report_test.jsonl";
  std::remove(path.c_str());
  obs::RoundReportWriter writer(path);

  obs::RoundReport report;
  report.round_index = 0;
  report.clients.push_back(client(0, "collected", 1.0, 1.0));
  obs::finalize_round_report(report);
  writer.append(report);
  obs::AsyncUpdateReport update;
  writer.append(update);
  EXPECT_EQ(writer.line_count(), 2u);

  // Both lines are already on disk (append + flush per line), no explicit
  // flush() needed — the crash-durability property.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], obs::to_json_line(report));
  EXPECT_EQ(lines[1], obs::to_json_line(update));
  std::remove(path.c_str());
}

TEST_F(RoundReportTest, RoundEngineEmitsOneLinePerRound) {
  const std::string path =
      ::testing::TempDir() + "/fedca_round_engine_report.jsonl";
  std::remove(path.c_str());
  {  // the session writes the report once more when it goes away
    // Geometry from the committed baseline scenario; only the knobs this
    // test asserts on are overridden.
    const fl::Scenario sc = fl::load_scenario_file(
        std::string(FEDCA_SOURCE_DIR) + "/scenarios/faultfree.scn");
    fl::ExperimentOptions options = sc.options;
    options.num_clients = 4;
    options.local_iterations = 3;
    options.train_samples = 160;
    options.test_samples = 32;
    options.collect_fraction = 0.75;
    options.worker_threads = 1;
    options.seed = 9;
    options.report_path = path;
    fl::FedAvgScheme scheme;
    fl::ExperimentSetup setup = fl::make_setup(options, scheme);
    setup.engine->run_round();
    setup.engine->run_round();

    const std::vector<std::string> lines = setup.session->report()->lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"type\":\"round\",\"round\":0"), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"round\",\"round\":1"), std::string::npos);
    // 4 participants -> 4 client objects, 3 collected + 1 shed at 0.75.
    EXPECT_NE(lines[0].find("\"participants\":4"), std::string::npos);
    EXPECT_NE(lines[0].find("\"collected\":3"), std::string::npos);
    EXPECT_NE(lines[0].find("\"shed\":1"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(RoundReportTest, AsyncEngineEmitsOneLinePerUpdate) {
  const std::string path =
      ::testing::TempDir() + "/fedca_async_engine_report.jsonl";
  std::remove(path.c_str());
  {  // the session writes the report once more when it goes away
    obs::SessionOptions outputs;
    outputs.report_path = path;
    obs::Session session(outputs);

    util::Rng root(11);
    util::Rng model_rng = root.fork(1);
    auto model = std::make_unique<nn::Classifier>(
        nn::build_model(nn::ModelKind::kCnn, model_rng));
    data::SyntheticSpec spec;
    util::Rng data_rng = root.fork(2);
    data::SyntheticTask task(nn::ModelKind::kCnn, spec, data_rng);
    util::Rng train_rng = root.fork(3);
    data::Dataset train = task.sample(160, train_rng);
    data::PartitionOptions part;
    part.num_clients = 4;
    part.num_classes = spec.num_classes;
    util::Rng part_rng = root.fork(4);
    auto shards = data::dirichlet_partition(train, part, part_rng);
    sim::ClusterOptions copts;
    copts.num_clients = 4;
    util::Rng cluster_rng = root.fork(5);
    sim::Cluster cluster(copts, cluster_rng);
    fl::AsyncEngineOptions aopts;
    aopts.local_iterations = 3;
    aopts.batch_size = 8;
    aopts.worker_threads = 1;
    fl::AsyncEngine engine(model.get(), &cluster, std::move(shards), aopts,
                           root.fork(6), &session);
    engine.run_updates(5);

    const std::vector<std::string> lines = session.report()->lines();
    ASSERT_EQ(lines.size(), 5u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_NE(lines[i].find("\"type\":\"async_update\",\"update\":" +
                              std::to_string(i)),
                std::string::npos)
          << lines[i];
      EXPECT_NE(lines[i].find("\"outcome\":\"applied\""), std::string::npos);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedca
