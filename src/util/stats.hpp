// Summary statistics, percentiles, and empirical CDFs.
//
// The evaluation section of the paper reports CDFs (Fig. 8), means
// (Table 1's per-round time), and distribution-shaped traces; this module
// provides the numerical plumbing for those reports.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace fedca::util {

// Running mean / variance accumulator (Welford). Numerically stable for
// long experiment streams.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  // Population variance; 0 when fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Linear-interpolated percentile of a sample, q in [0, 1]. The input is
// copied and sorted. Empty input returns 0.
double percentile(std::vector<double> samples, double q);

// Empirical CDF of a sample set: the fraction of samples <= x. Fig. 8 of
// the paper is exactly this applied to trigger iterations.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  // Fraction of samples <= x. 0 for x below all samples.
  double at(double x) const;

  // Evaluates the CDF on `points` evenly spaced values covering
  // [lo, hi]; used by the fig8 bench to print plottable series.
  std::vector<std::pair<double, double>> series(double lo, double hi,
                                                std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace fedca::util
