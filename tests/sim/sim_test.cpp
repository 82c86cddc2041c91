// Discrete-event queue, link model, and cluster assembly.
#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  sim::EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&] {
    times.push_back(q.now());
    q.schedule_in(0.5, [&] { times.push_back(q.now()); });
  });
  q.run_until_empty();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EventQueue, PastSchedulingThrows) {
  sim::EventQueue q;
  q.schedule(2.0, [] {});
  q.run_until_empty();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-0.5, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilRespectsDeadline) {
  sim::EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until_empty();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse) {
  sim::EventQueue q;
  EXPECT_FALSE(q.run_next());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BulkScheduleMatchesElementwiseSchedule) {
  // schedule_at_bulk must be observationally identical to a loop of
  // schedule() calls: same ordering, same FIFO among equal timestamps.
  util::Rng rng(301);
  std::vector<double> times;
  times.reserve(512);
  for (int i = 0; i < 512; ++i) {
    // Coarse grid so equal timestamps actually occur.
    times.push_back(static_cast<double>(rng.uniform_index(64)));
  }

  std::vector<int> loop_order;
  sim::EventQueue loop_q;
  for (int i = 0; i < 512; ++i) {
    loop_q.schedule(times[static_cast<std::size_t>(i)],
                    [&loop_order, i] { loop_order.push_back(i); });
  }
  loop_q.run_until_empty();

  std::vector<int> bulk_order;
  sim::EventQueue bulk_q;
  std::vector<sim::EventQueue::TimedEvent> batch;
  batch.reserve(512);
  for (int i = 0; i < 512; ++i) {
    batch.push_back({times[static_cast<std::size_t>(i)],
                     [&bulk_order, i] { bulk_order.push_back(i); }});
  }
  bulk_q.schedule_at_bulk(std::move(batch));
  bulk_q.run_until_empty();

  EXPECT_EQ(bulk_order, loop_order);
  EXPECT_DOUBLE_EQ(bulk_q.now(), loop_q.now());
}

TEST(EventQueue, MillionPendingEventsDrainInOrder) {
  // Property test at registry scale: >= 1M simultaneously pending events
  // with many timestamp collisions drain in nondecreasing time order with
  // FIFO among equal times. Callbacks capture a few words, so they must
  // stay in the EventFn inline store (no per-event heap traffic).
  constexpr std::size_t kEvents = 1'000'000;
  constexpr std::size_t kDistinctTimes = 4096;  // ~244 collisions per stamp
  util::Rng rng(0xE7E27);
  sim::EventQueue q;
  q.reserve(kEvents);

  struct Seen {
    double time;
    std::size_t seq;
  };
  std::vector<Seen> seen;
  seen.reserve(kEvents);
  std::vector<sim::EventQueue::TimedEvent> batch;
  batch.reserve(kEvents / 2);
  for (std::size_t i = 0; i < kEvents / 2; ++i) {
    const double t = static_cast<double>(rng.uniform_index(kDistinctTimes));
    q.schedule(t, [&seen, t, i] { seen.push_back({t, i}); });
  }
  for (std::size_t i = kEvents / 2; i < kEvents; ++i) {
    const double t = static_cast<double>(rng.uniform_index(kDistinctTimes));
    batch.push_back({t, [&seen, t, i] { seen.push_back({t, i}); }});
  }
  q.schedule_at_bulk(std::move(batch));
  ASSERT_EQ(q.pending(), kEvents);

  q.run_until_empty();
  ASSERT_EQ(seen.size(), kEvents);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_GE(seen[i].time, seen[i - 1].time) << "time order broken at " << i;
    if (seen[i].time == seen[i - 1].time) {
      ASSERT_GT(seen[i].seq, seen[i - 1].seq)
          << "FIFO among equal timestamps broken at " << i;
    }
  }
}

TEST(Link, TransferSecondsMatchesBandwidth) {
  sim::Link link(8.0, 0.0);  // 8 Mbps, no latency: 1 MB = 1 s
  EXPECT_NEAR(link.transfer_seconds(1e6), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(link.transfer_seconds(0.0), 0.0);
}

TEST(Link, LatencyAddsFixedCost) {
  sim::Link link(8.0, 0.25);
  EXPECT_NEAR(link.transfer_seconds(1e6), 1.25, 1e-12);
}

TEST(Link, TransfersSerialize) {
  sim::Link link(8.0, 0.0);
  const sim::Transfer t1 = link.transmit(0.0, 1e6);   // [0, 1]
  const sim::Transfer t2 = link.transmit(0.5, 1e6);   // ready at .5, starts at 1
  EXPECT_DOUBLE_EQ(t1.end, 1.0);
  EXPECT_DOUBLE_EQ(t2.start, 1.0);
  EXPECT_DOUBLE_EQ(t2.end, 2.0);
  // A transfer ready after the link is free starts immediately.
  const sim::Transfer t3 = link.transmit(5.0, 1e6);
  EXPECT_DOUBLE_EQ(t3.start, 5.0);
  EXPECT_DOUBLE_EQ(t3.end, 6.0);
}

TEST(Link, PeekDoesNotCommit) {
  sim::Link link(8.0, 0.0);
  const double peek = link.peek_finish(0.0, 1e6);
  EXPECT_DOUBLE_EQ(peek, 1.0);
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
  link.transmit(0.0, 1e6);
  EXPECT_DOUBLE_EQ(link.busy_until(), 1.0);
  EXPECT_DOUBLE_EQ(link.peek_finish(0.0, 1e6), 2.0);
}

TEST(Link, Validation) {
  EXPECT_THROW(sim::Link(0.0), std::invalid_argument);
  EXPECT_THROW(sim::Link(1.0, -0.1), std::invalid_argument);
  sim::Link link(1.0);
  EXPECT_THROW(link.transfer_seconds(-1.0), std::invalid_argument);
  EXPECT_THROW(link.transmit(-1.0, 10.0), std::invalid_argument);
}

TEST(Cluster, BuildsRequestedClients) {
  sim::ClusterOptions opts;
  opts.num_clients = 17;
  util::Rng rng(1);
  sim::Cluster cluster(opts, rng);
  EXPECT_EQ(cluster.size(), 17u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    sim::DeviceLease device = cluster.lease(i);
    EXPECT_EQ(device->id(), i);
    EXPECT_GT(device->profile().base_speed, 0.0);
  }
}

TEST(Cluster, ClientsAreHeterogeneous) {
  sim::ClusterOptions opts;
  opts.num_clients = 32;
  util::Rng rng(2);
  sim::Cluster cluster(opts, rng);
  double lo = 1e9, hi = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const double speed = cluster.lease(i)->profile().base_speed;
    lo = std::min(lo, speed);
    hi = std::max(hi, speed);
  }
  EXPECT_GT(hi / lo, 1.5);
}

TEST(Cluster, DeterministicInSeed) {
  sim::ClusterOptions opts;
  opts.num_clients = 8;
  util::Rng r1(3);
  util::Rng r2(3);
  sim::Cluster a(opts, r1);
  sim::Cluster b(opts, r2);
  for (std::size_t i = 0; i < 8; ++i) {
    sim::DeviceLease da = a.lease(i);
    sim::DeviceLease db = b.lease(i);
    EXPECT_DOUBLE_EQ(da->profile().base_speed, db->profile().base_speed);
    EXPECT_DOUBLE_EQ(da->compute_finish(0.0, 10.0), db->compute_finish(0.0, 10.0));
  }
}

TEST(Cluster, ComputeFinishUsesTimeline) {
  sim::ClusterOptions opts;
  opts.num_clients = 1;
  opts.dynamicity.enabled = false;
  util::Rng rng(4);
  sim::Cluster cluster(opts, rng);
  sim::DeviceLease c = cluster.lease(0);
  const double speed = c->profile().base_speed;
  EXPECT_NEAR(c->compute_finish(2.0, speed * 3.0), 5.0, 1e-9);
}

}  // namespace
}  // namespace fedca
