// Seeded fault injection for the simulator.
//
// The paper's evaluation runs 128 real EC2 clients, where stragglers,
// dropouts, and bandwidth collapse are the norm — FedCA's deadline-based
// marginal cost (Eq. 3) and the 90 % partial-aggregation rule exist to
// tolerate exactly that. The seed cluster, by contrast, is perfectly
// reliable, so none of that machinery is exercised off the happy path.
// This module perturbs the simulation deterministically:
//
//   * client crash       — permanent departure at a virtual time;
//   * transient dropout  — the client is offline for a window (work in
//                          flight when the window opens is lost);
//   * compute slowdown   — iteration time multiplied by a factor for a
//                          window (stragglers beyond the trace dynamicity);
//   * link degradation   — bandwidth multiplied by a factor in [0, 1) for
//                          a window on the client's uplink+downlink
//                          (0 = outage; installed into Link);
//   * eager loss         — an eager layer transmission is lost or
//                          truncated in flight (decided per
//                          (client, round, layer) by a seeded hash).
//
// Everything is deterministic in the schedule seed: the same seed yields
// the same schedule and therefore bit-identical experiment results. An
// empty schedule is exactly free — consumers keep their original
// arithmetic when no fault can apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace fedca::sim {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

enum class FaultKind { kCrash, kDropout, kComputeSlowdown, kLinkDegrade };

// One scheduled fault. `duration`/`factor` are interpreted per kind:
// crash ignores both; dropout ignores factor; slowdown multiplies
// iteration time by factor (>= 1); link degradation multiplies bandwidth
// by factor in [0, 1] (0 = outage).
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  std::size_t client = 0;
  double start = 0.0;
  double duration = 0.0;
  double factor = 1.0;
};

// Knobs for random schedule generation. Rates are per client over the
// horizon; all randomness flows from `seed` (decorrelated per client), so
// the same options always generate the same schedule.
struct FaultScheduleOptions {
  bool enabled = false;
  // Virtual-time span over which faults are placed.
  double horizon_seconds = 20000.0;
  // Fraction of clients that permanently crash at a uniform time in the
  // horizon.
  double crash_fraction = 0.0;
  // Expected transient dropouts per client over the horizon; window
  // lengths are exponential with the given mean.
  double dropouts_per_client = 0.0;
  double dropout_mean_seconds = 120.0;
  // Expected compute-slowdown windows per client; factors ~ U(lo, hi).
  double slowdowns_per_client = 0.0;
  double slowdown_mean_seconds = 300.0;
  double slowdown_factor_lo = 2.0;
  double slowdown_factor_hi = 8.0;
  // Expected link-degradation windows per client; bandwidth factors
  // ~ U(lo, hi), clamped to [0, 1] (0 = outage).
  double link_faults_per_client = 0.0;
  double link_fault_mean_seconds = 120.0;
  double link_factor_lo = 0.0;
  double link_factor_hi = 0.5;
  // Per-transfer probabilities that an eager layer transmission is lost /
  // truncated in flight (decided by a seeded hash, not by windows).
  double eager_loss_probability = 0.0;
  double eager_truncate_probability = 0.0;
  std::uint64_t seed = 1;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;
  // Takes explicit events (sorted internally by start, client, kind).
  explicit FaultSchedule(std::vector<FaultEvent> events);

  // Deterministic random schedule per `options` (same options -> same
  // events, independent of num_clients ordering).
  static FaultSchedule generate(const FaultScheduleOptions& options,
                                std::size_t num_clients);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t count(FaultKind kind) const;

 private:
  std::vector<FaultEvent> events_;
};

// Half-open [start, end) interval with an attached factor.
struct FaultWindow {
  double start = 0.0;
  double end = 0.0;
  double factor = 1.0;

  bool covers(double t) const { return t >= start && t < end; }
};

enum class EagerFault { kNone, kLost, kTruncated };

// Immutable query API the simulator and engines consult. Built once from a
// schedule; all queries are const and allocation-free.
class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, std::size_t num_clients,
                double eager_loss_probability = 0.0,
                double eager_truncate_probability = 0.0, std::uint64_t seed = 1);

  // nullptr when options.enabled is false (callers keep the fault-free
  // fast path).
  static std::shared_ptr<const FaultInjector> from_options(
      const FaultScheduleOptions& options, std::size_t num_clients);

  std::size_t num_clients() const { return num_clients_; }
  const FaultSchedule& schedule() const { return schedule_; }

  // Permanent-crash time of `client`; kNever if it never crashes.
  double crash_time(std::size_t client) const;
  bool crashed_at(std::size_t client, double t) const {
    return t >= crash_time(client);
  }
  // True when the client is crashed or inside a dropout window at t.
  bool offline_at(std::size_t client, double t) const;
  // Earliest time >= t at which the client is (or goes) offline; kNever if
  // it stays online forever.
  double next_offline(std::size_t client, double t) const;
  // Crash vs dropout at an offline instant (crash wins when both apply).
  FaultKind offline_kind(std::size_t client, double t) const;
  // Earliest time >= t at which the client is online again (end of the
  // covering dropout window); kNever once crashed; t if already online.
  double online_after(std::size_t client, double t) const;

  bool has_slowdowns(std::size_t client) const {
    return !slowdowns_.at(client).empty();
  }
  // Iteration-time multiplier at t (1 outside slowdown windows).
  double slowdown_at(std::size_t client, double t) const;
  // Finish time of `work` unit-speed seconds started at `start` on the
  // device timeline, with slowdown windows composed in exactly (piecewise
  // integration across window boundaries).
  double compute_finish(std::size_t client, trace::SpeedTimeline& timeline,
                        double start, double work) const;

  const std::vector<FaultWindow>& dropout_windows(std::size_t client) const {
    return dropouts_.at(client);
  }
  // Bandwidth-degradation windows to install on the client's links.
  const std::vector<FaultWindow>& link_windows(std::size_t client) const {
    return links_.at(client);
  }

  // Seeded Bernoulli per (client, round, layer): whether this eager
  // transmission is lost or truncated in flight.
  EagerFault eager_fault(std::size_t client, std::size_t round,
                         std::size_t layer) const;

 private:
  FaultSchedule schedule_;
  std::size_t num_clients_;
  double eager_loss_p_;
  double eager_truncate_p_;
  std::uint64_t seed_;
  std::vector<double> crash_times_;                  // per client
  std::vector<std::vector<FaultWindow>> dropouts_;   // merged, sorted
  std::vector<std::vector<FaultWindow>> slowdowns_;  // merged (max factor), sorted
  std::vector<std::vector<FaultWindow>> links_;      // sorted (overlap = min factor)
};

}  // namespace fedca::sim
