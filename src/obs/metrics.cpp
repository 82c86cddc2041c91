#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fedca::obs {

namespace {

// JSON string escaping for metric names (quotes, backslashes, control
// characters); names are ASCII identifiers in practice.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {
  if (!(hi > lo)) throw std::invalid_argument("HistogramMetric: hi must exceed lo");
}

void HistogramMetric::record(double v) {
  // The whole bin computation runs under the lock: counts_ is guarded, and
  // although its size never changes after construction, reading it outside
  // the lock would be exactly the kind of "works today" exception the
  // static analysis exists to forbid.
  util::MutexLock lock(mutex_);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::size_t bin = 0;
  if (v >= hi_) {
    bin = counts_.size() - 1;
  } else if (v > lo_) {
    const double pos = (v - lo_) / width;
    bin = static_cast<std::size_t>(pos);
    // Buckets past the first are (lo_b, hi_b]: a value sitting exactly on
    // a bucket edge belongs to the bucket it terminates, not the one it
    // opens. Binning it upward inflated the interpolated p90/p99 for
    // small samples whose values land on edges (e.g. integer-valued
    // histograms with integer bucket widths).
    if (bin > 0 && static_cast<double>(bin) == pos) --bin;
    bin = std::min(bin, counts_.size() - 1);
  }
  ++counts_[bin];
  stats_.add(v);
}

double HistogramMetric::quantile(double q) const {
  util::MutexLock lock(mutex_);
  return quantile_locked(q);
}

double HistogramMetric::quantile_locked(double q) const {
  const std::uint64_t total = stats_.count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  double cum = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double next = cum + static_cast<double>(counts_[b]);
    if (next >= target && counts_[b] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[b]);
      const double lo = lo_ + width * static_cast<double>(b);
      return std::clamp(lo + frac * width, stats_.min(), stats_.max());
    }
    cum = next;
  }
  return stats_.max();
}

util::RunningStats HistogramMetric::summary() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::size_t HistogramMetric::count() const {
  util::MutexLock lock(mutex_);
  return stats_.count();
}

HistogramSnapshot HistogramMetric::snapshot() const {
  util::MutexLock lock(mutex_);
  HistogramSnapshot snap;
  snap.stats = stats_;
  snap.p50 = quantile_locked(0.50);
  snap.p90 = quantile_locked(0.90);
  snap.p99 = quantile_locked(0.99);
  return snap;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins) {
  util::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(lo, hi, bins);
  return *slot;
}

std::vector<MetricRow> MetricsRegistry::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<MetricRow> rows;
  rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricRow row;
    row.name = name;
    row.kind = "counter";
    row.value = c->value();
    row.count = 1;
    rows.push_back(std::move(row));
  }
  for (const auto& [name, g] : gauges_) {
    MetricRow row;
    row.name = name;
    row.kind = "gauge";
    row.value = g->value();
    row.count = 1;
    rows.push_back(std::move(row));
  }
  for (const auto& [name, h] : histograms_) {
    // One lock per histogram: summary and percentiles are captured at the
    // same instant, so a concurrently recording worker cannot produce a row
    // whose count disagrees with its percentiles (the old code took four
    // separate locks here).
    const HistogramSnapshot snap = h->snapshot();
    MetricRow row;
    row.name = name;
    row.kind = "histogram";
    row.value = snap.stats.mean();
    row.count = snap.stats.count();
    row.min = snap.stats.min();
    row.max = snap.stats.max();
    row.p50 = snap.p50;
    row.p90 = snap.p90;
    row.p99 = snap.p99;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const MetricRow& a, const MetricRow& b) { return a.name < b.name; });
  return rows;
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const MetricRow& row : snapshot()) {
    os << "{\"name\":\"" << json_escape(row.name) << "\",\"kind\":\"" << row.kind
       << "\",\"value\":" << num(row.value);
    if (row.kind == "histogram") {
      os << ",\"count\":" << row.count << ",\"min\":" << num(row.min)
         << ",\"max\":" << num(row.max) << ",\"p50\":" << num(row.p50)
         << ",\"p90\":" << num(row.p90) << ",\"p99\":" << num(row.p99);
    }
    os << "}\n";
  }
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "name,kind,value,count,min,max,p50,p90,p99\n";
  for (const MetricRow& row : snapshot()) {
    os << row.name << ',' << row.kind << ',' << num(row.value) << ',' << row.count
       << ',' << num(row.min) << ',' << num(row.max) << ',' << num(row.p50) << ','
       << num(row.p90) << ',' << num(row.p99) << '\n';
  }
}

void MetricsRegistry::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MetricsRegistry::save: cannot open " + path);
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    write_csv(out);
  } else {
    write_jsonl(out);
  }
  out.flush();
  if (!out) throw std::runtime_error("MetricsRegistry::save: write failed for " + path);
}

}  // namespace fedca::obs
