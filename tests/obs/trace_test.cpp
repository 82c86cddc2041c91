// Span tracer: clock domains, pid allocation, Chrome-trace JSON output,
// every event kept whole under concurrent recording, and how a session
// arms it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/session.hpp"
#include "util/thread_registry.hpp"

namespace fedca {
namespace {

// A session that traces into a temp file (written when it goes away) and
// is current on this thread for the test's extent.
class TraceTest : public ::testing::Test {
 protected:
  static obs::SessionOptions traced(bool kernel_detail = false) {
    obs::SessionOptions options;
    options.trace_path = ::testing::TempDir() + "trace_test.json";
    options.kernel_detail = kernel_detail;
    return options;
  }
  void TearDown() override { std::remove(traced().trace_path.c_str()); }

  obs::Session session_{traced()};
  obs::SessionScope scope_{&session_};
  obs::TraceCollector& t = *session_.trace();
};

TEST_F(TraceTest, DisabledCollectorRecordsNothing) {
  // A session without a trace path has no collector, and its wall spans
  // record nowhere — not even into an armed session further out.
  obs::Session untraced{obs::SessionOptions{}};
  EXPECT_EQ(untraced.trace(), nullptr);
  {
    const obs::SessionScope inner(&untraced);
    EXPECT_EQ(obs::current_trace(), nullptr);
    { FEDCA_WALL_SPAN("ignored.wall"); }
    { FEDCA_KERNEL_SPAN("ignored.kernel"); }
  }
  EXPECT_EQ(obs::current_trace(), &t);
  EXPECT_EQ(t.event_count(), 0u);
}

TEST_F(TraceTest, OutputPathArmsCollector) {
  EXPECT_NE(session_.trace(), nullptr);
  EXPECT_EQ(session_.options().trace_path, traced().trace_path);
  obs::SessionOptions unarmed;
  unarmed.metrics_path = ::testing::TempDir() + "trace_test_metrics.csv";
  {
    obs::Session metrics_only(unarmed);
    EXPECT_EQ(metrics_only.trace(), nullptr);
    EXPECT_NE(metrics_only.metrics(), nullptr);
  }
  std::remove(unarmed.metrics_path.c_str());
}

TEST_F(TraceTest, PidAllocationSkipsWallPid) {
  const std::uint32_t first = t.allocate_process_ids(3);
  const std::uint32_t second = t.allocate_process_ids(2);
  EXPECT_GT(first, obs::kWallClockPid);
  EXPECT_EQ(second, first + 3);
}

TEST_F(TraceTest, VirtualAndWallDomainsStayDistinct) {
  const std::uint32_t pid = t.allocate_process_ids(1);
  t.set_process_name(pid, "client 0");
  t.record_span(pid, "compute", 1.0, 3.5, {{"round", "2"}});
  { FEDCA_WALL_SPAN("sgd.real_work"); }

  const std::vector<obs::TraceEvent> events = t.snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  const auto virt = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.clock == obs::Clock::kVirtual;
  });
  const auto wall = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.clock == obs::Clock::kWall;
  });
  ASSERT_NE(virt, events.end());
  ASSERT_NE(wall, events.end());
  EXPECT_EQ(virt->pid, pid);
  EXPECT_DOUBLE_EQ(virt->ts_us, 1.0e6);
  EXPECT_DOUBLE_EQ(virt->dur_us, 2.5e6);
  // Wall spans live in the reserved pid, never a virtual one.
  EXPECT_EQ(wall->pid, obs::kWallClockPid);
  EXPECT_GE(wall->dur_us, 0.0);
}

TEST_F(TraceTest, NestedWallSpansBothRecorded) {
  {
    FEDCA_WALL_SPAN("outer");
    { FEDCA_WALL_SPAN("inner"); }
  }
  const std::vector<obs::TraceEvent> events = t.snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  // Same thread -> same tid; the inner span closes first but nests inside
  // the outer one's interval.
  EXPECT_EQ(events[0].tid, events[1].tid);
  const obs::TraceEvent& inner = events[0].name == "inner" ? events[0] : events[1];
  const obs::TraceEvent& outer = events[0].name == "outer" ? events[0] : events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1.0);
}

TEST_F(TraceTest, KernelSpansRequireDetailFlag) {
  { FEDCA_KERNEL_SPAN("conv2d.forward"); }
  EXPECT_EQ(t.event_count(), 0u);
  obs::Session detailed(traced(/*kernel_detail=*/true));
  {
    const obs::SessionScope scope(&detailed);
    { FEDCA_KERNEL_SPAN("conv2d.forward"); }
  }
  EXPECT_EQ(detailed.trace()->event_count(), 1u);
  EXPECT_EQ(t.event_count(), 0u);
}

TEST_F(TraceTest, ChromeJsonIsValidAndSorted) {
  const std::uint32_t base = t.allocate_process_ids(2);
  t.set_process_name(base, "server");
  t.set_process_name(base + 1, "client 0");
  // Record out of order; the writer must sort by (pid, tid, ts).
  t.record_span(base + 1, "upload", 5.0, 6.0);
  t.record_span(base + 1, "download", 0.0, 1.0);
  t.record_instant(base, "aggregate", 6.5, {{"round", "0"}});

  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();

  // Structural checks without a JSON parser: array brackets, one object
  // per line, metadata naming both processes plus the wall-clock host.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("host (wall clock)"), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"client 0\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"virtual\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  // download precedes upload after sorting.
  EXPECT_LT(json.find("\"download\""), json.find("\"upload\""));
}

TEST_F(TraceTest, ArgsEscapedInJson) {
  const std::uint32_t pid = t.allocate_process_ids(1);
  t.record_instant(pid, "odd \"name\"", 0.0, {{"k", "va\\lue\n"}});
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("odd \\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("va\\\\lue\\n"), std::string::npos);
}

// Eight threads record far more than one thread ever does in a traced
// round loop, interleaving wall spans on their own tid with virtual spans
// on their own pid. Every event is kept, and each (pid, tid) track comes
// back in the order its thread recorded it.
TEST_F(TraceTest, ConcurrentRecordersKeepEveryEventInTrackOrder) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kEvents = 20000;
  const std::uint32_t base = t.allocate_process_ids(kThreads);

  std::vector<std::uint32_t> tids(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([this, &tids, base, k] {
      tids[k] = util::ThreadRegistry::current_id();
      const auto pid = static_cast<std::uint32_t>(base + k);
      for (std::size_t i = 0; i < kEvents; ++i) {
        const auto at = static_cast<double>(i);
        if (i % 2 == 0) {
          t.record_wall_span("load.wall", at, at + 0.5);
        } else {
          t.record_span(pid, "load.virtual", at, at + 0.5, {{"i", std::to_string(i)}});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<obs::TraceEvent> events = t.snapshot_events();
  ASSERT_EQ(events.size(), kThreads * kEvents);
  EXPECT_EQ(t.event_count(), kThreads * kEvents);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<double>> tracks;
  for (const obs::TraceEvent& e : events) tracks[{e.pid, e.tid}].push_back(e.ts_us);
  ASSERT_EQ(tracks.size(), 2 * kThreads);
  for (std::size_t k = 0; k < kThreads; ++k) {
    const std::vector<double>& wall = tracks[{obs::kWallClockPid, tids[k]}];
    const std::vector<double>& virt = tracks[{static_cast<std::uint32_t>(base + k), 0}];
    ASSERT_EQ(wall.size(), kEvents / 2) << "thread " << k;
    ASSERT_EQ(virt.size(), kEvents / 2) << "thread " << k;
    for (std::size_t j = 0; j < kEvents / 2; ++j) {
      ASSERT_DOUBLE_EQ(wall[j], static_cast<double>(2 * j) * 1e6) << "thread " << k;
      ASSERT_DOUBLE_EQ(virt[j], static_cast<double>(2 * j + 1) * 1e6) << "thread " << k;
    }
  }
}

// Names and args of any length reach the JSON whole, and the file still
// passes tools/check_trace.py.
TEST_F(TraceTest, LongNamesAndArgsAreWrittenWhole) {
  const std::string name = "long." + std::string(95, 'n');
  const std::string value(300, 'v');
  ASSERT_EQ(name.size(), 100u);
  const std::uint32_t pid = t.allocate_process_ids(1);
  t.record_span(pid, name, 0.0, 1.0, {{"kept", "yes"}, {"big", value}});

  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"" + name + "\""), std::string::npos);
  EXPECT_NE(json.find("\"kept\":\"yes\""), std::string::npos);
  EXPECT_NE(json.find("\"big\":\"" + value + "\""), std::string::npos);

  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string path = ::testing::TempDir() + "trace_test_long.json";
  t.save(path);
  const std::string cmd = std::string("python3 ") + FEDCA_SOURCE_DIR +
                          "/tools/check_trace.py " + path + " --expect " + name +
                          " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::remove(path.c_str());
}

TEST_F(TraceTest, ConfigureHonorsExplicitPathsOverEnv) {
  // Explicit paths win regardless of environment.
  const obs::SessionOptions options =
      obs::resolve_outputs("explicit_trace.json", "explicit_metrics.csv", "");
  EXPECT_EQ(options.trace_path, "explicit_trace.json");
  EXPECT_EQ(options.metrics_path, "explicit_metrics.csv");
}

TEST_F(TraceTest, ResetClearsEverything) {
  // What one session recorded never reaches the next: a new session starts
  // with no events, no process names and pids from 1 again.
  const std::uint32_t pid = t.allocate_process_ids(1);
  t.set_process_name(pid, "client 0");
  t.record_instant(pid, "e", 0.0);
  ASSERT_EQ(t.event_count(), 1u);
  obs::Session next(traced());
  EXPECT_EQ(next.trace()->event_count(), 0u);
  EXPECT_TRUE(next.trace()->process_names().empty());
  EXPECT_EQ(next.trace()->allocate_process_ids(1), pid);
}

}  // namespace
}  // namespace fedca
