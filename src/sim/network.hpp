// Point-to-point link model with serialized transfers.
//
// Matches the paper's testbed shaping: every client link is rate-limited
// (13.7 Mbps by default, via wondershaper in the paper), and a link can
// carry one transfer at a time — an eager layer transmission occupies the
// uplink until it completes, delaying any transfer queued behind it. This
// serialization is exactly what makes eager transmission interesting: it
// buys overlap with *computation*, not with other transfers.
//
// The server's 10 Gbps link is modeled as non-blocking (128 clients *
// 13.7 Mbps = 1.75 Gbps < 10 Gbps), which mirrors the EC2 setup.
#pragma once

#include <cstddef>
#include <vector>

namespace fedca::sim {

// Time interval of one scheduled transfer.
struct Transfer {
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
};

class Link {
 public:
  // `latency_seconds` is the fixed per-transfer setup cost (RPC framing /
  // RTT); `bandwidth_mbps` the rate limit.
  Link(double bandwidth_mbps, double latency_seconds = 0.005);

  double bandwidth_mbps() const { return bandwidth_mbps_; }
  double busy_until() const { return busy_until_; }

  // Pure function: seconds needed to move `bytes` once started, at nominal
  // bandwidth (degradation windows are applied by transmit/peek_finish).
  double transfer_seconds(double bytes) const;

  // Fault injection: during [start, end) the effective bandwidth is
  // nominal * factor (factor 0 = outage; overlapping windows combine by
  // taking the minimum factor). With no windows installed the transfer
  // arithmetic is byte-for-byte the original closed form.
  void add_degradation(double start, double end, double factor);
  bool degraded() const { return !windows_.empty(); }

  // Re-targets this link at another client (pooled-replica path): resets
  // the bandwidth, drops all degradation windows, and clears the busy
  // state. Latency is a cluster-wide constant and stays as constructed.
  void rebind(double bandwidth_mbps);
  // Restores persisted serialization state (a leased replica inherits the
  // client's uplink/downlink occupancy from its registry record).
  void set_busy_until(double t) { busy_until_ = t; }

  // Schedules a transfer that becomes ready at `earliest_start`; it begins
  // when both the payload is ready and the link is free, and occupies the
  // link until it ends. Returns the realized interval. A transfer caught
  // in a permanent outage ends (and leaves the link busy) at +infinity.
  Transfer transmit(double earliest_start, double bytes);

  // Earliest time a transfer ready at `earliest_start` would *finish*
  // without committing it (for planning/deadline estimates).
  double peek_finish(double earliest_start, double bytes) const;

 private:
  struct Window {
    double start;
    double end;
    double factor;
  };

  // Bandwidth factor in effect at time t (min over covering windows).
  double factor_at(double t) const;
  // Finish time of `bytes` begun at `begin`, draining through windows.
  double finish_from(double begin, double bytes) const;

  double bandwidth_mbps_;
  double latency_seconds_;
  double busy_until_ = 0.0;
  std::vector<Window> windows_;  // sorted by start
};

}  // namespace fedca::sim
