// RunningStats, percentile, EmpiricalCdf.
#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace fedca {
namespace {

TEST(RunningStats, BasicMoments) {
  util::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAndSingle) {
  util::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeMatchesSequential) {
  util::RunningStats all;
  util::RunningStats left;
  util::RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i - 3.0;
    all.add(x);
    (i < 40 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  util::RunningStats a;
  a.add(1.0);
  a.add(2.0);
  util::RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  util::RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.5), 25.0);
  EXPECT_NEAR(util::percentile(v, 0.25), 17.5, 1e-12);
}

TEST(Percentile, HandlesUnsortedAndEmpty) {
  EXPECT_DOUBLE_EQ(util::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(util::percentile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(Percentile, ClampsQuantile) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(util::percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 2.0), 2.0);
}

TEST(EmpiricalCdf, StepValues) {
  util::EmpiricalCdf cdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(EmpiricalCdf, SeriesIsMonotone) {
  util::EmpiricalCdf cdf({5.0, 1.0, 3.0, 3.0, 8.0});
  const auto series = cdf.series(0.0, 10.0, 21);
  ASSERT_EQ(series.size(), 21u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.front().second, 0.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdf, EmptySet) {
  util::EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_TRUE(cdf.series(0.0, 1.0, 0).empty());
}

}  // namespace
}  // namespace fedca
