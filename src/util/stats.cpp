#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace fedca::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) return samples.back();
  return samples[lower] * (1.0 - frac) + samples[lower + 1] * frac;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::series(double lo, double hi,
                                                            std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (points == 0) return out;
  out.reserve(points);
  if (points == 1) {
    out.emplace_back(lo, at(lo));
    return out;
  }
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, at(x));
  }
  return out;
}

}  // namespace fedca::util
