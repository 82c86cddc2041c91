// Metrics registry — the numeric half of the observability layer (the
// span tracer in obs/trace.hpp is the timeline half). An obs::Session
// (obs/session.hpp) owns one per experiment when metrics are armed.
//
// Three instrument kinds, all thread-safe:
//   * Counter   — monotonically accumulated double (events, bytes);
//   * Gauge     — last-written value (sampled sizes, current accuracy);
//   * Histogram — fixed-bucket distribution over [lo, hi) with a
//     util::RunningStats summary (mean/min/max/stddev) and approximate
//     percentiles interpolated from the buckets.
//
// Instrumented code records through the FEDCA_M* macros (obs/session.hpp),
// which reach the calling thread's session and are no-ops (one
// thread-local load and one branch) when its metrics are disarmed.
// Snapshots export deterministically (sorted by name) as JSONL or CSV,
// chosen by file extension in save().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::obs {

class Counter {
 public:
  void add(double v = 1.0) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Single-lock view of a histogram: summary statistics and the exported
// percentiles captured at the same instant (one mutex acquisition), so a
// concurrent record() can never tear count apart from p50/p90/p99.
struct HistogramSnapshot {
  util::RunningStats stats;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins);

  void record(double v);

  // Approximate quantile (q in [0, 1]) by linear interpolation over the
  // cumulative bucket counts; exact min/max from the running summary.
  double quantile(double q) const;
  util::RunningStats summary() const;
  std::size_t count() const;
  // Summary + p50/p90/p99 under one lock (what the registry exports).
  HistogramSnapshot snapshot() const;

 private:
  double quantile_locked(double q) const FEDCA_REQUIRES(mutex_);

  double lo_;
  double hi_;
  mutable util::Mutex mutex_;
  std::vector<std::uint64_t> counts_ FEDCA_GUARDED_BY(mutex_);
  util::RunningStats stats_ FEDCA_GUARDED_BY(mutex_);
};

// One exported metric, flattened for the writers.
struct MetricRow {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  double value = 0.0;  // counter/gauge value; histogram mean
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  // Instruments are created on first use and live as long as the
  // registry; returned references stay valid across later registrations.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins);

  // Deterministic export: rows sorted by name.
  std::vector<MetricRow> snapshot() const;
  void write_jsonl(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
  // Writes CSV when `path` ends in ".csv", JSONL otherwise; throws
  // std::runtime_error on I/O failure.
  void save(const std::string& path) const;

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ FEDCA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FEDCA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
      FEDCA_GUARDED_BY(mutex_);
};

}  // namespace fedca::obs
