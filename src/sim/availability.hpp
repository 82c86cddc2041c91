// Seeded population availability dynamics.
//
// Cross-device FL populations churn: devices come and go (charging,
// connectivity, user activity), participation follows day/night cycles,
// and availability is *correlated* across clients — whole clusters drop
// out together (Rodio et al., "Federated Learning under Heterogeneous and
// Correlated Client Availability"). The paper's 128-client testbed is
// always-on; this layer adds the missing population behavior so deadline
// (T_R) and partial-aggregation machinery can be exercised under churn at
// registry scale:
//
//   * per-client alternating on/off renewal process with exponential
//     durations (mean_on / mean_off seconds), memoryless so the
//     stationary online probability is mean_on / (mean_on + mean_off);
//   * day/night modulation: segment-duration means are scaled by a
//     sinusoidal diurnal factor evaluated at segment start, lengthening
//     online stretches by day and offline stretches by night;
//   * cluster-correlated outages: clients hash into `outage_groups`
//     groups, each with its own seeded renewal process of outage windows
//     (gap ~ Exp(1/outage_rate), duration ~ Exp(outage_mean)); a group
//     outage takes every member offline at once.
//
// All state per client is one POD AvailabilityCursor (lives in the
// ClientRegistry record); group state is O(outage_groups). Everything is
// derived from `seed`, queries are main-thread and monotone in time, so
// runs are bit-deterministic across worker counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace fedca::sim {

struct AvailabilityOptions {
  bool enabled = false;
  // Mean online / offline stretch in virtual seconds (exponential).
  double mean_on = 600.0;
  double mean_off = 200.0;
  // Diurnal modulation: period of one virtual "day" and the sinusoidal
  // amplitude in [0, 0.9]; 0 disables modulation.
  double day_period = 86400.0;
  double day_amplitude = 0.0;
  // Correlated outages: number of correlation groups (0 disables), the
  // per-group outage arrival rate (outages per virtual second), and the
  // mean outage duration in seconds.
  std::size_t outage_groups = 0;
  double outage_rate = 0.0;
  double outage_mean = 0.0;
  std::uint64_t seed = 0x5EEDA11FULL;
};

// Per-client renewal-process state: a POD snapshot small enough to live in
// a compact registry record. `online` is the state of the segment ending
// at `until`; the RNG snapshot resumes the stream exactly.
struct AvailabilityCursor {
  util::RngState rng;
  double until = 0.0;
  bool online = true;
  bool initialized = false;
};

class AvailabilityModel {
 public:
  explicit AvailabilityModel(const AvailabilityOptions& options);

  const AvailabilityOptions& options() const { return options_; }

  // True iff client `client` is available at virtual time `t`, advancing
  // the client's cursor. Queries must be monotone in `t` per client (and
  // per group); call from one thread only (engines query at round start on
  // the main thread).
  bool online_at(std::size_t client, AvailabilityCursor& cursor, double t);

  // Whether client `client`'s correlation group is inside an outage window
  // at `t` (false when correlated outages are disabled). Monotone in `t`
  // per group.
  bool group_outage_at(std::size_t client, double t);

  // Diurnal duration factor at time t (1.0 when modulation is off).
  double diurnal(double t) const;

  // Live footprint of the group state (population budget accounting).
  std::size_t live_bytes() const;

 private:
  struct Group {
    util::Rng rng;
    double horizon = 0.0;
    std::size_t next = 0;  // first window not entirely before the last query
    std::vector<std::pair<double, double>> windows;  // [start, end), sorted
  };

  void advance(AvailabilityCursor& cursor, double t) const;
  void extend_group(Group& group, double t);

  AvailabilityOptions options_;
  util::Rng base_;
  bool outages_enabled_ = false;
  std::vector<Group> groups_;
};

}  // namespace fedca::sim
