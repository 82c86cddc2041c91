// Metrics registry: instrument semantics, concurrency, deterministic
// snapshots, and the enabled-gating of the FEDCA_M* recording macros.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/session.hpp"
#include "util/thread_pool.hpp"

namespace fedca {
namespace {

// A session with metrics armed (snapshot written to a temp file when it
// goes away), current on this thread for the test's extent.
class MetricsTest : public ::testing::Test {
 protected:
  static obs::SessionOptions armed() {
    obs::SessionOptions options;
    options.metrics_path = ::testing::TempDir() + "metrics_fixture.csv";
    return options;
  }
  void TearDown() override { std::remove(armed().metrics_path.c_str()); }

  obs::Session session_{armed()};
  obs::SessionScope scope_{&session_};
  obs::MetricsRegistry& registry = *session_.metrics();
};

TEST_F(MetricsTest, CounterAccumulates) {
  obs::Counter& c = registry.counter("t.counter");
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same name returns the same instrument.
  EXPECT_EQ(&c, &registry.counter("t.counter"));
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  obs::Gauge& g = registry.gauge("t.gauge");
  g.set(1.0);
  g.set(-7.0);
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST_F(MetricsTest, HistogramSummaryAndQuantiles) {
  obs::HistogramMetric& h =
      registry.histogram("t.histo", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  const util::RunningStats s = h.summary();
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 99.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
  // Out-of-range samples clamp into the edge buckets but keep exact
  // min/max in the summary.
  h.record(-10.0);
  h.record(250.0);
  EXPECT_DOUBLE_EQ(h.summary().min(), -10.0);
  EXPECT_DOUBLE_EQ(h.summary().max(), 250.0);
}

// Regression: a value sitting exactly on a bucket edge must land in the
// bucket it terminates — buckets past the first are (lo, hi]. Binning
// edge values upward shifted every percentile of integer-valued samples
// one full bucket high (p90 of 10..100 read 95 instead of 90).
TEST_F(MetricsTest, HistogramBucketEdgesBelongToTheLowerBucket) {
  obs::HistogramMetric& h =
      registry.histogram("t.edges", 0.0, 100.0, 10);
  for (int v = 10; v <= 100; v += 10) h.record(static_cast<double>(v));
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 90.0);
  // The first bucket is closed on both ends: lo itself stays in bucket 0.
  obs::HistogramMetric& lo =
      registry.histogram("t.edges.lo", 0.0, 10.0, 10);
  lo.record(0.0);
  EXPECT_DOUBLE_EQ(lo.quantile(1.0), 0.0);
}

TEST_F(MetricsTest, ConcurrentRecordingThroughThreadPool) {
  constexpr int kTasks = 64;
  constexpr int kPerTask = 500;
  {
    util::ThreadPool pool(4);
    pool.parallel_for_dynamic(kTasks, [this](std::size_t) {
      // Pool workers record into a session only while one is installed.
      const obs::SessionScope scope(&session_);
      for (int i = 0; i < kPerTask; ++i) {
        FEDCA_MCOUNT("t.concurrent.count", 1.0);
        FEDCA_MHISTO("t.concurrent.histo", 0.0, 1.0, 10,
                     static_cast<double>(i % 10) / 10.0);
      }
    });
  }
  EXPECT_DOUBLE_EQ(
      registry.counter("t.concurrent.count").value(),
      static_cast<double>(kTasks) * kPerTask);
  EXPECT_EQ(registry
                .histogram("t.concurrent.histo", 0.0, 1.0, 10)
                .count(),
            static_cast<std::size_t>(kTasks) * kPerTask);
}

TEST_F(MetricsTest, MacrosAreNoOpsWhenDisabled) {
  // The current session has no metrics: the macros record nowhere, not
  // even into the armed session further out.
  obs::Session disarmed{obs::SessionOptions{}};
  {
    const obs::SessionScope scope(&disarmed);
    EXPECT_EQ(obs::current_metrics(), nullptr);
    FEDCA_MCOUNT("t.disabled", 1.0);
    FEDCA_MGAUGE("t.disabled.gauge", 5.0);
    FEDCA_MHISTO("t.disabled.histo", 0.0, 1.0, 4, 0.5);
  }
  // No session at all behaves the same.
  {
    const obs::SessionScope none(nullptr);
    FEDCA_MCOUNT("t.disabled", 1.0);
  }
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST_F(MetricsTest, SnapshotIsSortedAndDeterministic) {
  FEDCA_MCOUNT("zeta.count", 2.0);
  FEDCA_MGAUGE("alpha.gauge", 1.0);
  FEDCA_MHISTO("mid.histo", 0.0, 10.0, 10, 3.0);
  const std::vector<obs::MetricRow> a = registry.snapshot();
  const std::vector<obs::MetricRow> b = registry.snapshot();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].name, "alpha.gauge");
  EXPECT_EQ(a[0].kind, "gauge");
  EXPECT_EQ(a[1].name, "mid.histo");
  EXPECT_EQ(a[1].kind, "histogram");
  EXPECT_EQ(a[2].name, "zeta.count");
  EXPECT_EQ(a[2].kind, "counter");
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
  }
}

TEST_F(MetricsTest, WritersEmitOneRowPerMetric) {
  FEDCA_MCOUNT("w.count", 4.0);
  FEDCA_MHISTO("w.histo", 0.0, 1.0, 4, 0.25);
  std::ostringstream jsonl;
  registry.write_jsonl(jsonl);
  std::string line;
  std::istringstream in(jsonl.str());
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2u);

  std::ostringstream csv;
  registry.write_csv(csv);
  std::istringstream csv_in(csv.str());
  lines = 0;
  while (std::getline(csv_in, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 rows
  EXPECT_EQ(csv.str().rfind("name,", 0), 0u);
}

TEST_F(MetricsTest, SavePicksFormatByExtension) {
  FEDCA_MCOUNT("s.count", 1.0);
  const std::string csv_path = ::testing::TempDir() + "metrics_test.csv";
  const std::string jsonl_path = ::testing::TempDir() + "metrics_test.jsonl";
  registry.save(csv_path);
  registry.save(jsonl_path);
  std::ifstream csv(csv_path);
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first.rfind("name,", 0), 0u);
  std::ifstream jsonl(jsonl_path);
  std::getline(jsonl, first);
  EXPECT_EQ(first.front(), '{');
  std::remove(csv_path.c_str());
  std::remove(jsonl_path.c_str());
}

}  // namespace
}  // namespace fedca
