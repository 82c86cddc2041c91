#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fedca::sim {

namespace {

void sort_events(std::vector<FaultEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.client != b.client) return a.client < b.client;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

// Exponential with the given mean; u from [0, 1).
double exponential(util::Rng& rng, double mean) {
  return -std::log(1.0 - rng.uniform()) * mean;
}

// Number of events for an expected per-client rate: the integer part plus a
// Bernoulli trial on the fractional part (keeps the expectation exact while
// staying deterministic per stream).
std::size_t event_count(util::Rng& rng, double expected) {
  if (expected <= 0.0) return 0;
  const double whole = std::floor(expected);
  std::size_t n = static_cast<std::size_t>(whole);
  if (rng.uniform() < expected - whole) ++n;
  return n;
}

// Flattens possibly-overlapping windows into sorted disjoint ones, combining
// overlapping factors with `combine` (max for slowdowns, min for bandwidth).
// Windows whose combined factor equals `identity` are dropped.
template <typename Combine>
std::vector<FaultWindow> flatten(std::vector<FaultWindow> raw, Combine combine,
                                 double identity) {
  raw.erase(std::remove_if(raw.begin(), raw.end(),
                           [](const FaultWindow& w) { return !(w.end > w.start); }),
            raw.end());
  if (raw.empty()) return raw;
  std::vector<double> cuts;
  cuts.reserve(raw.size() * 2);
  for (const FaultWindow& w : raw) {
    cuts.push_back(w.start);
    cuts.push_back(w.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<FaultWindow> flat;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double lo = cuts[i];
    const double hi = cuts[i + 1];
    bool covered = false;
    double factor = identity;
    for (const FaultWindow& w : raw) {
      if (w.start <= lo && hi <= w.end) {
        factor = covered ? combine(factor, w.factor) : w.factor;
        covered = true;
      }
    }
    if (!covered || factor == identity) continue;
    if (!flat.empty() && flat.back().end == lo && flat.back().factor == factor) {
      flat.back().end = hi;  // coalesce equal-factor neighbours
    } else {
      flat.push_back({lo, hi, factor});
    }
  }
  return flat;
}

// Union-merge (factor-less) windows: overlapping or touching intervals fuse.
std::vector<FaultWindow> merge_union(std::vector<FaultWindow> raw) {
  raw.erase(std::remove_if(raw.begin(), raw.end(),
                           [](const FaultWindow& w) { return !(w.end > w.start); }),
            raw.end());
  std::sort(raw.begin(), raw.end(), [](const FaultWindow& a, const FaultWindow& b) {
    return a.start < b.start;
  });
  std::vector<FaultWindow> merged;
  for (const FaultWindow& w : raw) {
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

// SplitMix64 finalizer — decorrelates the (client, round, layer) key.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

const FaultWindow* covering_window(const std::vector<FaultWindow>& windows,
                                   double t) {
  for (const FaultWindow& w : windows) {
    if (w.start > t) break;
    if (w.covers(t)) return &w;
  }
  return nullptr;
}

}  // namespace

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  sort_events(events_);
}

std::size_t FaultSchedule::count(FaultKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const FaultEvent& e) { return e.kind == kind; }));
}

FaultSchedule FaultSchedule::generate(const FaultScheduleOptions& options,
                                      std::size_t num_clients) {
  std::vector<FaultEvent> events;
  if (num_clients == 0) return FaultSchedule(std::move(events));
  const double horizon = std::max(options.horizon_seconds, 0.0);
  const util::Rng root(options.seed);

  // Crashes: an exact fraction of the population, chosen without
  // replacement from a dedicated stream so per-client streams stay aligned
  // regardless of the crash fraction.
  const double frac = std::clamp(options.crash_fraction, 0.0, 1.0);
  const std::size_t num_crashes = static_cast<std::size_t>(
      std::llround(frac * static_cast<double>(num_clients)));
  if (num_crashes > 0) {
    util::Rng crash_rng = root.fork(0xFA00C0DEULL);
    const std::vector<std::size_t> victims =
        crash_rng.sample_without_replacement(num_clients, num_crashes);
    for (std::size_t c : victims) {
      events.push_back({FaultKind::kCrash, c, crash_rng.uniform(0.0, horizon),
                        0.0, 1.0});
    }
  }

  for (std::size_t c = 0; c < num_clients; ++c) {
    util::Rng rng = root.fork(0xFA010000ULL + c);
    const std::size_t dropouts = event_count(rng, options.dropouts_per_client);
    for (std::size_t i = 0; i < dropouts; ++i) {
      const double start = rng.uniform(0.0, horizon);
      const double len = exponential(rng, options.dropout_mean_seconds);
      events.push_back({FaultKind::kDropout, c, start, len, 1.0});
    }
    const std::size_t slowdowns = event_count(rng, options.slowdowns_per_client);
    for (std::size_t i = 0; i < slowdowns; ++i) {
      const double start = rng.uniform(0.0, horizon);
      const double len = exponential(rng, options.slowdown_mean_seconds);
      const double factor = std::max(
          1.0, rng.uniform(options.slowdown_factor_lo, options.slowdown_factor_hi));
      events.push_back({FaultKind::kComputeSlowdown, c, start, len, factor});
    }
    const std::size_t link_faults =
        event_count(rng, options.link_faults_per_client);
    for (std::size_t i = 0; i < link_faults; ++i) {
      const double start = rng.uniform(0.0, horizon);
      const double len = exponential(rng, options.link_fault_mean_seconds);
      const double factor = std::clamp(
          rng.uniform(options.link_factor_lo, options.link_factor_hi), 0.0, 1.0);
      events.push_back({FaultKind::kLinkDegrade, c, start, len, factor});
    }
  }
  return FaultSchedule(std::move(events));
}

FaultInjector::FaultInjector(FaultSchedule schedule, std::size_t num_clients,
                             double eager_loss_probability,
                             double eager_truncate_probability,
                             std::uint64_t seed)
    : schedule_(std::move(schedule)),
      num_clients_(num_clients),
      eager_loss_p_(std::clamp(eager_loss_probability, 0.0, 1.0)),
      eager_truncate_p_(std::clamp(eager_truncate_probability, 0.0, 1.0)),
      seed_(seed),
      crash_times_(num_clients, kNever),
      dropouts_(num_clients),
      slowdowns_(num_clients),
      links_(num_clients) {
  std::vector<std::vector<FaultWindow>> raw_slow(num_clients);
  std::vector<std::vector<FaultWindow>> raw_link(num_clients);
  for (const FaultEvent& e : schedule_.events()) {
    if (e.client >= num_clients) {
      throw std::out_of_range("FaultInjector: event client out of range");
    }
    switch (e.kind) {
      case FaultKind::kCrash:
        crash_times_[e.client] = std::min(crash_times_[e.client], e.start);
        break;
      case FaultKind::kDropout:
        dropouts_[e.client].push_back({e.start, e.start + e.duration, 1.0});
        break;
      case FaultKind::kComputeSlowdown:
        raw_slow[e.client].push_back(
            {e.start, e.start + e.duration, std::max(e.factor, 1.0)});
        break;
      case FaultKind::kLinkDegrade:
        raw_link[e.client].push_back(
            {e.start, e.start + e.duration, std::clamp(e.factor, 0.0, 1.0)});
        break;
    }
  }
  for (std::size_t c = 0; c < num_clients; ++c) {
    dropouts_[c] = merge_union(std::move(dropouts_[c]));
    slowdowns_[c] = flatten(
        std::move(raw_slow[c]),
        [](double a, double b) { return std::max(a, b); }, 1.0);
    links_[c] = flatten(
        std::move(raw_link[c]),
        [](double a, double b) { return std::min(a, b); }, 1.0);
  }
}

std::shared_ptr<const FaultInjector> FaultInjector::from_options(
    const FaultScheduleOptions& options, std::size_t num_clients) {
  if (!options.enabled) return nullptr;
  return std::make_shared<const FaultInjector>(
      FaultSchedule::generate(options, num_clients), num_clients,
      options.eager_loss_probability, options.eager_truncate_probability,
      options.seed);
}

double FaultInjector::crash_time(std::size_t client) const {
  return crash_times_.at(client);
}

bool FaultInjector::offline_at(std::size_t client, double t) const {
  if (crashed_at(client, t)) return true;
  return covering_window(dropouts_[client], t) != nullptr;
}

double FaultInjector::next_offline(std::size_t client, double t) const {
  if (offline_at(client, t)) return t;
  double next = crash_times_[client];
  for (const FaultWindow& w : dropouts_[client]) {
    if (w.start >= t) {
      next = std::min(next, w.start);
      break;  // windows are sorted; the first future one is the earliest
    }
  }
  return next;
}

FaultKind FaultInjector::offline_kind(std::size_t client, double t) const {
  return crashed_at(client, t) ? FaultKind::kCrash : FaultKind::kDropout;
}

double FaultInjector::online_after(std::size_t client, double t) const {
  if (crashed_at(client, t)) return kNever;
  double at = t;
  while (const FaultWindow* w = covering_window(dropouts_[client], at)) {
    at = w->end;
    if (crashed_at(client, at)) return kNever;
  }
  return at;
}

double FaultInjector::slowdown_at(std::size_t client, double t) const {
  const FaultWindow* w = covering_window(slowdowns_[client], t);
  return w != nullptr ? w->factor : 1.0;
}

double FaultInjector::compute_finish(std::size_t client,
                                     trace::SpeedTimeline& timeline,
                                     double start, double work) const {
  if (!std::isfinite(start)) return start;
  if (work <= 0.0) return start;
  const std::vector<FaultWindow>& windows = slowdowns_[client];
  if (windows.empty()) return timeline.finish_time(start, work);

  double t = start;
  double remaining = work;
  for (;;) {
    const FaultWindow* inside = covering_window(windows, t);
    if (inside != nullptr) {
      // Effective speed is timeline speed / factor: finishing `remaining`
      // work here is equivalent to finishing `remaining * factor` work at
      // nominal speed.
      const double candidate = timeline.finish_time(t, remaining * inside->factor);
      if (candidate <= inside->end) return candidate;
      const double done =
          timeline.average_speed(t, inside->end) * (inside->end - t) /
          inside->factor;
      remaining -= done;
      t = inside->end;
    } else {
      double next_start = kNever;
      for (const FaultWindow& w : windows) {
        if (w.start > t) {
          next_start = w.start;
          break;
        }
      }
      const double candidate = timeline.finish_time(t, remaining);
      if (candidate <= next_start) return candidate;
      const double done = timeline.average_speed(t, next_start) * (next_start - t);
      remaining -= done;
      t = next_start;
    }
    if (remaining <= 0.0) return t;
  }
}

EagerFault FaultInjector::eager_fault(std::size_t client, std::size_t round,
                                      std::size_t layer) const {
  if (eager_loss_p_ <= 0.0 && eager_truncate_p_ <= 0.0) return EagerFault::kNone;
  std::uint64_t h = mix64(seed_ ^ 0xEA6E7FA0ULL);
  h = mix64(h ^ static_cast<std::uint64_t>(client));
  h = mix64(h ^ static_cast<std::uint64_t>(round));
  h = mix64(h ^ static_cast<std::uint64_t>(layer));
  // Top 53 bits -> uniform double in [0, 1), same mapping as Rng::uniform.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < eager_loss_p_) return EagerFault::kLost;
  if (u < eager_loss_p_ + eager_truncate_p_) return EagerFault::kTruncated;
  return EagerFault::kNone;
}

}  // namespace fedca::sim
