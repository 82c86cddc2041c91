// Flight recorder: ring wrap-around / drop accounting, per-thread
// chronology, volunteer auto-drain, and argument-blob packing.
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_registry.hpp"

namespace fedca {
namespace {

// Every test builds its own recorder (or a collector, which owns one), so
// nothing carries over between tests.
class RecorderTest : public ::testing::Test {};

TEST_F(RecorderTest, AppendArgPacksPairsAndRejectsOverflow) {
  obs::RecorderEvent event{};
  EXPECT_TRUE(obs::append_arg(event, "client", "7"));
  EXPECT_TRUE(obs::append_arg(event, "round", "12"));
  const std::string big(obs::RecorderEvent::kArgCapacity, 'x');
  EXPECT_FALSE(obs::append_arg(event, "huge", big.c_str()));

  std::vector<std::pair<std::string, std::string>> seen;
  obs::for_each_arg(event, [&seen](const char* key, const char* value) {
    seen.emplace_back(key, value);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"client", "7"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"round", "12"}));
}

TEST_F(RecorderTest, EventRingDropsNewestAndCountsExactly) {
  obs::EventRing ring(4);
  obs::RecorderEvent event{};
  for (int i = 0; i < 10; ++i) {
    event.t0 = static_cast<double>(i);
    ring.try_push(event);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);

  std::vector<double> drained;
  ring.drain([&drained](const obs::RecorderEvent& e) { drained.push_back(e.t0); });
  // Drop-newest keeps the OLDEST events, in push order.
  EXPECT_EQ(drained, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 6u);  // accounting survives the drain
}

// Fill rings past capacity under 8 concurrent threads (auto drain
// disabled so the wrap is deterministic), then assert the published
// obs.recorder.dropped counter is EXACT and every surviving per-thread
// stream is chronologically valid — the first `capacity` events, in order.
TEST_F(RecorderTest, EightThreadWrapAccountsEveryDropExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kPushes = 100;

  obs::MetricsRegistry registry;
  obs::TraceOptions options;
  options.metrics = &registry;
  options.ring_capacity = kCapacity;
  options.auto_drain = false;
  obs::TraceCollector collector(options);

  std::vector<std::thread> threads;
  std::vector<std::uint32_t> tids(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector, &tids, t] {
      tids[t] = util::ThreadRegistry::current_id();
      for (std::size_t i = 0; i < kPushes; ++i) {
        collector.record_wall_span("wrap.span", static_cast<double>(i),
                                   static_cast<double>(i) + 0.5);
      }
    });
  }
  for (auto& t : threads) t.join();

  // snapshot_events drains the rings and publishes the drop accounting.
  const std::vector<obs::TraceEvent> events = collector.snapshot_events();
  std::map<std::uint32_t, std::vector<double>> per_tid;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "wrap.span") per_tid[e.tid].push_back(e.ts_us);
  }
  ASSERT_EQ(per_tid.size(), kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto it = per_tid.find(tids[t]);
    ASSERT_NE(it, per_tid.end()) << "no events for thread " << t;
    const std::vector<double>& ts = it->second;
    ASSERT_EQ(ts.size(), kCapacity) << "thread " << t;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      // Chronological AND exactly the first kCapacity pushes (drop-newest).
      EXPECT_DOUBLE_EQ(ts[i], static_cast<double>(i) * 1e6)
          << "thread " << t << " slot " << i;
    }
  }

  const double dropped = registry.counter("obs.recorder.dropped").value();
  EXPECT_DOUBLE_EQ(dropped,
                   static_cast<double>(kThreads * (kPushes - kCapacity)));
  EXPECT_EQ(collector.recorder().dropped_total(), kThreads * (kPushes - kCapacity));
}

TEST_F(RecorderTest, EventRingPopIntoPreservesOrderAndAccounting) {
  obs::EventRing ring(4);
  obs::RecorderEvent event{};
  for (int i = 0; i < 6; ++i) {
    event.t0 = static_cast<double>(i);
    ring.try_push(event);
  }
  std::vector<obs::RecorderEvent> out;
  EXPECT_EQ(ring.pop_into(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(out[i].t0, static_cast<double>(i));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 2u);  // drop-newest accounting survives the pop
}

// Regression (found by fedca_analyze lock-callback): drain() used to invoke
// the sink while holding the drain mutex, so a sink that re-entered the
// recorder (a nested drain) deadlocked. Collection is still
// serialized, but delivery now happens after the lock is released.
TEST_F(RecorderTest, DrainSinkMayReenterRecorder) {
  obs::Recorder recorder;  // no sink: no volunteer drain

  obs::RecorderEvent event{};
  event.kind = obs::RecordKind::kInstant;
  event.t0 = 1.0;
  recorder.record(event);
  event.t0 = 2.0;
  recorder.record(event);

  std::vector<double> seen;
  std::size_t nested = 0;
  const std::size_t delivered =
      recorder.drain([&](const obs::RecorderEvent& e) {
        seen.push_back(e.t0);
        nested += recorder.drain([](const obs::RecorderEvent&) {});
      });
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(nested, 0u);  // rings were already emptied by the outer drain
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
}

TEST_F(RecorderTest, AutoDrainKeepsEveryEventPastRingCapacity) {
  constexpr std::size_t kCapacity = 128;
  constexpr std::size_t kPushes = 1000;

  obs::TraceOptions options;
  options.ring_capacity = kCapacity;
  // auto_drain is on by default: the producing thread volunteers to empty
  // the rings into the collector at the 3/4 high-water mark.
  obs::TraceCollector collector(options);
  std::thread producer([&collector] {
    for (std::size_t i = 0; i < kPushes; ++i) {
      collector.record_wall_span("flood.span", static_cast<double>(i),
                                 static_cast<double>(i) + 0.25);
    }
  });
  producer.join();

  EXPECT_EQ(collector.event_count(), kPushes);
  EXPECT_EQ(collector.recorder().dropped_total(), 0u);
}

TEST_F(RecorderTest, OversizeArgsAreTruncatedAndCounted) {
  obs::MetricsRegistry registry;
  obs::TraceOptions options;
  options.metrics = &registry;
  obs::TraceCollector collector(options);

  const std::string big(obs::RecorderEvent::kArgCapacity, 'v');
  collector.record_span(1, "args.span", 0.0, 1.0,
                        {{"kept", "yes"}, {"huge", big}});

  const std::vector<obs::TraceEvent> events = collector.snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 1u);  // oversize pair dropped, first kept
  EXPECT_EQ(events[0].args[0].first, "kept");
  EXPECT_EQ(events[0].args[0].second, "yes");
  EXPECT_GE(registry.counter("obs.recorder.truncated").value(), 1.0);
}

}  // namespace
}  // namespace fedca
