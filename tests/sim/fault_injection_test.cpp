// Property tests for the fault-injection layer: schedule generation
// determinism, injector window queries, link degradation math,
// and exact slowdown composition against hand integration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

sim::FaultScheduleOptions chaos_options(std::uint64_t seed) {
  sim::FaultScheduleOptions o;
  o.enabled = true;
  o.horizon_seconds = 5000.0;
  o.crash_fraction = 0.25;
  o.dropouts_per_client = 1.5;
  o.dropout_mean_seconds = 80.0;
  o.slowdowns_per_client = 1.25;
  o.slowdown_mean_seconds = 200.0;
  o.link_faults_per_client = 0.75;
  o.link_fault_mean_seconds = 60.0;
  o.eager_loss_probability = 0.05;
  o.eager_truncate_probability = 0.05;
  o.seed = seed;
  return o;
}

TEST(FaultSchedule, GenerationIsDeterministicInSeed) {
  const sim::FaultScheduleOptions options = chaos_options(7);
  const sim::FaultSchedule a = sim::FaultSchedule::generate(options, 16);
  const sim::FaultSchedule b = sim::FaultSchedule::generate(options, 16);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].client, b.events()[i].client);
    EXPECT_DOUBLE_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_DOUBLE_EQ(a.events()[i].duration, b.events()[i].duration);
    EXPECT_DOUBLE_EQ(a.events()[i].factor, b.events()[i].factor);
  }
  // A different seed yields a different schedule.
  sim::FaultScheduleOptions other = options;
  other.seed = 8;
  const sim::FaultSchedule c = sim::FaultSchedule::generate(other, 16);
  bool any_diff = c.events().size() != a.events().size();
  for (std::size_t i = 0; !any_diff && i < a.events().size(); ++i) {
    any_diff = a.events()[i].start != c.events()[i].start;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultSchedule, CrashFractionIsExact) {
  const std::size_t n = 16;
  sim::FaultScheduleOptions options = chaos_options(3);
  options.crash_fraction = 0.25;
  const sim::FaultSchedule s = sim::FaultSchedule::generate(options, n);
  EXPECT_EQ(s.count(sim::FaultKind::kCrash), n / 4);
  // Events are sorted by start time.
  for (std::size_t i = 1; i < s.events().size(); ++i) {
    EXPECT_LE(s.events()[i - 1].start, s.events()[i].start);
  }
}

TEST(FaultSchedule, DisabledOptionsYieldNullInjector) {
  sim::FaultScheduleOptions options = chaos_options(1);
  options.enabled = false;
  EXPECT_EQ(sim::FaultInjector::from_options(options, 8), nullptr);
}

TEST(FaultInjector, OfflineQueriesFollowWindows) {
  // Client 0: dropout [10, 20), crash at 50. Client 1: clean.
  std::vector<sim::FaultEvent> events;
  events.push_back({sim::FaultKind::kDropout, 0, 10.0, 10.0, 1.0});
  events.push_back({sim::FaultKind::kCrash, 0, 50.0, 0.0, 1.0});
  const sim::FaultInjector inj(sim::FaultSchedule(std::move(events)), 2);

  EXPECT_FALSE(inj.offline_at(0, 9.99));
  EXPECT_TRUE(inj.offline_at(0, 10.0));
  EXPECT_TRUE(inj.offline_at(0, 19.99));
  EXPECT_FALSE(inj.offline_at(0, 20.0));
  EXPECT_TRUE(inj.offline_at(0, 50.0));
  EXPECT_TRUE(inj.crashed_at(0, 1e9));

  EXPECT_DOUBLE_EQ(inj.next_offline(0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(inj.next_offline(0, 15.0), 15.0);  // already offline
  EXPECT_DOUBLE_EQ(inj.next_offline(0, 20.0), 50.0);  // next is the crash
  EXPECT_EQ(inj.offline_kind(0, 15.0), sim::FaultKind::kDropout);
  EXPECT_EQ(inj.offline_kind(0, 60.0), sim::FaultKind::kCrash);

  EXPECT_DOUBLE_EQ(inj.online_after(0, 15.0), 20.0);
  EXPECT_DOUBLE_EQ(inj.online_after(0, 5.0), 5.0);    // already online
  EXPECT_EQ(inj.online_after(0, 55.0), kInf);          // crashed forever

  EXPECT_EQ(inj.next_offline(1, 0.0), kInf);
  EXPECT_FALSE(inj.offline_at(1, 1e6));
}

TEST(FaultInjector, OverlappingDropoutsMerge) {
  std::vector<sim::FaultEvent> events;
  events.push_back({sim::FaultKind::kDropout, 0, 10.0, 10.0, 1.0});  // [10,20)
  events.push_back({sim::FaultKind::kDropout, 0, 15.0, 15.0, 1.0});  // [15,30)
  const sim::FaultInjector inj(sim::FaultSchedule(std::move(events)), 1);
  ASSERT_EQ(inj.dropout_windows(0).size(), 1u);
  EXPECT_DOUBLE_EQ(inj.dropout_windows(0)[0].start, 10.0);
  EXPECT_DOUBLE_EQ(inj.dropout_windows(0)[0].end, 30.0);
  EXPECT_DOUBLE_EQ(inj.online_after(0, 12.0), 30.0);
}

TEST(FaultInjector, OverlappingSlowdownsTakeMaxFactor) {
  std::vector<sim::FaultEvent> events;
  events.push_back({sim::FaultKind::kComputeSlowdown, 0, 0.0, 20.0, 2.0});
  events.push_back({sim::FaultKind::kComputeSlowdown, 0, 10.0, 20.0, 4.0});
  const sim::FaultInjector inj(sim::FaultSchedule(std::move(events)), 1);
  EXPECT_DOUBLE_EQ(inj.slowdown_at(0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(inj.slowdown_at(0, 15.0), 4.0);
  EXPECT_DOUBLE_EQ(inj.slowdown_at(0, 25.0), 4.0);
  EXPECT_DOUBLE_EQ(inj.slowdown_at(0, 30.0), 1.0);
}

TEST(FaultInjector, ComputeFinishComposesSlowdownExactly) {
  // Constant-speed timeline (dynamicity off) so the answer is closed-form.
  trace::DynamicityOptions dyn;
  dyn.enabled = false;
  trace::SpeedTimeline timeline(1.0, dyn, util::Rng(1));

  // Slowdown x4 on [10, 18): work accrues at 1 outside, 1/4 inside.
  std::vector<sim::FaultEvent> events;
  events.push_back({sim::FaultKind::kComputeSlowdown, 0, 10.0, 8.0, 4.0});
  const sim::FaultInjector inj(sim::FaultSchedule(std::move(events)), 1);

  // 12 work units from t=0: 10 before the window, 8s * 1/4 = 2 inside ->
  // exactly exhausts the window at t=18.
  EXPECT_NEAR(inj.compute_finish(0, timeline, 0.0, 12.0), 18.0, 1e-9);
  // 14 units: 10 + 2 in-window + 2 after -> t=20.
  EXPECT_NEAR(inj.compute_finish(0, timeline, 0.0, 14.0), 20.0, 1e-9);
  // Entirely before the window: unchanged.
  EXPECT_NEAR(inj.compute_finish(0, timeline, 0.0, 5.0), 5.0, 1e-12);
  // Started inside the window: 4x slower until 18.
  EXPECT_NEAR(inj.compute_finish(0, timeline, 12.0, 1.0), 16.0, 1e-9);
  // Zero work is free.
  EXPECT_DOUBLE_EQ(inj.compute_finish(0, timeline, 7.0, 0.0), 7.0);
}

TEST(FaultInjector, ComputeFinishMatchesTimelineWhenNoWindows) {
  trace::DynamicityOptions dyn;  // enabled: real piecewise speeds
  trace::SpeedTimeline a(1.3, dyn, util::Rng(99));
  trace::SpeedTimeline b(1.3, dyn, util::Rng(99));
  const sim::FaultInjector inj(sim::FaultSchedule(), 1);
  for (const double work : {0.5, 3.0, 42.0}) {
    EXPECT_DOUBLE_EQ(inj.compute_finish(0, a, 1.0, work), b.finish_time(1.0, work));
  }
}

TEST(FaultInjector, EagerFaultIsDeterministicAndSeedDependent) {
  sim::FaultScheduleOptions options = chaos_options(21);
  options.eager_loss_probability = 0.3;
  options.eager_truncate_probability = 0.2;
  const auto inj = sim::FaultInjector::from_options(options, 8);
  ASSERT_NE(inj, nullptr);

  std::size_t lost = 0, truncated = 0, none = 0;
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t r = 0; r < 20; ++r) {
      for (std::size_t l = 0; l < 4; ++l) {
        const sim::EagerFault f = inj->eager_fault(c, r, l);
        EXPECT_EQ(f, inj->eager_fault(c, r, l));  // pure function
        if (f == sim::EagerFault::kLost) ++lost;
        else if (f == sim::EagerFault::kTruncated) ++truncated;
        else ++none;
      }
    }
  }
  // ~30% / 20% / 50% of 640 draws; loose bounds, just "all kinds occur".
  EXPECT_GT(lost, 100u);
  EXPECT_GT(truncated, 50u);
  EXPECT_GT(none, 200u);

  sim::FaultScheduleOptions other = options;
  other.seed = 22;
  const auto inj2 = sim::FaultInjector::from_options(other, 8);
  bool differs = false;
  for (std::size_t r = 0; r < 20 && !differs; ++r) {
    differs = inj->eager_fault(0, r, 0) != inj2->eager_fault(0, r, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(LinkDegradation, EmptyWindowsKeepClosedForm) {
  sim::Link plain(10.0, 0.01);
  sim::Link faulty(10.0, 0.01);
  faulty.add_degradation(100.0, 200.0, 0.5);  // far in the future
  const double bytes = 1e6;
  // Before any window both links agree bit-for-bit.
  const sim::Transfer a = plain.transmit(1.0, bytes);
  const sim::Transfer b = faulty.transmit(1.0, bytes);
  EXPECT_DOUBLE_EQ(a.start, b.start);
  EXPECT_DOUBLE_EQ(a.end, b.end);
}

TEST(LinkDegradation, HalvedBandwidthDoublesDrainTime) {
  // 8 Mbps, no latency: 1e6 bytes = 8e6 bits = 1.0 s at full rate.
  sim::Link link(8.0, 0.0);
  link.add_degradation(0.0, 100.0, 0.5);
  const sim::Transfer t = link.transmit(0.0, 1e6);
  EXPECT_NEAR(t.end, 2.0, 1e-9);
}

TEST(LinkDegradation, OutageStallsUntilWindowEnds) {
  sim::Link link(8.0, 0.0);
  link.add_degradation(0.0, 5.0, 0.0);  // total outage for 5 s
  const sim::Transfer t = link.transmit(0.0, 1e6);
  EXPECT_NEAR(t.end, 6.0, 1e-9);  // 5 s stalled + 1 s draining

  // A transfer spanning the boundary drains partially, stalls, resumes.
  sim::Link half(8.0, 0.0);
  half.add_degradation(0.5, 1.5, 0.0);
  const sim::Transfer u = half.transmit(0.0, 1e6);
  // 0.5 s at full rate (4e6 bits), 1 s outage, 0.5 s remainder.
  EXPECT_NEAR(u.end, 2.0, 1e-9);
}

TEST(LinkDegradation, PermanentOutageYieldsInfiniteFinish) {
  sim::Link link(8.0, 0.0);
  link.add_degradation(0.0, kInf, 0.0);
  EXPECT_EQ(link.peek_finish(0.0, 100.0), kInf);
  const sim::Transfer t = link.transmit(0.0, 100.0);
  EXPECT_EQ(t.end, kInf);
  EXPECT_EQ(link.busy_until(), kInf);  // the link is dead
}

TEST(LinkDegradation, RejectsBadFactor) {
  sim::Link link(8.0, 0.0);
  EXPECT_THROW(link.add_degradation(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(link.add_degradation(0.0, 1.0, -0.1), std::invalid_argument);
}

TEST(ClusterFaults, InstallRoutesComputeAndLinks) {
  sim::ClusterOptions options;
  options.num_clients = 2;
  options.dynamicity.enabled = false;
  util::Rng rng(5);
  sim::Cluster cluster(options, rng);

  std::vector<sim::FaultEvent> events;
  events.push_back({sim::FaultKind::kComputeSlowdown, 0, 0.0, 1e9, 2.0});
  events.push_back({sim::FaultKind::kLinkDegrade, 1, 0.0, 1e9, 0.5});
  auto injector = std::make_shared<const sim::FaultInjector>(
      sim::FaultSchedule(std::move(events)), 2);

  // Pre-install baselines.
  const double base_compute = cluster.lease(0)->compute_finish(0.0, 4.0) - 0.0;
  const double base_transfer = cluster.lease(1)->uplink().peek_finish(0.0, 1e5);

  cluster.install_faults(injector);
  EXPECT_EQ(cluster.faults(), injector);

  // Client 0 computes 2x slower; client 1's uplink drains 2x slower
  // (latency excepted, which is zero only in the bits term).
  sim::DeviceLease slowed = cluster.lease(0);
  sim::DeviceLease degraded = cluster.lease(1);
  EXPECT_NEAR(slowed->compute_finish(0.0, 4.0), base_compute * 2.0, 1e-9);
  EXPECT_GT(degraded->uplink().peek_finish(0.0, 1e5), base_transfer);
  // Client 0's links are untouched, client 1's compute is untouched.
  EXPECT_FALSE(slowed->uplink().degraded());
  EXPECT_TRUE(degraded->uplink().degraded());
}

TEST(ClusterFaults, NonFiniteComputeStartPassesThrough) {
  sim::ClusterOptions options;
  options.num_clients = 1;
  util::Rng rng(5);
  sim::Cluster cluster(options, rng);
  EXPECT_EQ(cluster.lease(0)->compute_finish(kInf, 10.0), kInf);
}

}  // namespace
}  // namespace fedca
