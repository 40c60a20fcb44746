// Tests for common/stats.hpp: Welford accumulation, merging, Clopper-Pearson
// bounds and quantiles.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace churnet {
namespace {

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stderr_mean(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(OnlineStats, KnownSmallSample) {
  OnlineStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance with n-1 denominator: sum of squares = 32, 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStats, MatchesTwoPassComputation) {
  Rng rng(1);
  std::vector<double> values;
  OnlineStats stats;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(3.0, 7.0);
    values.push_back(x);
    stats.add(x);
  }
  double mean = 0.0;
  for (const double x : values) mean += x;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double x : values) var += (x - mean) * (x - mean);
  var /= static_cast<double>(values.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), var, 1e-6);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  Rng rng(2);
  OnlineStats combined;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.real01() * 10.0;
    combined.add(x);
    (i % 3 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(3.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(ClopperPearson, AllSuccessesLowerBound) {
  // P[X >= 20 | p] = p^20 = alpha at the lower bound.
  const Interval bounds = clopper_pearson(20, 20, 0.05);
  EXPECT_NEAR(bounds.lo, std::pow(0.05, 1.0 / 20.0), 1e-9);
  EXPECT_NEAR(bounds.lo, 0.8609, 1e-4);
  EXPECT_DOUBLE_EQ(bounds.hi, 1.0);
}

TEST(ClopperPearson, NoSuccessesUpperBound) {
  // P[X <= 0 | p] = (1-p)^10 = alpha at the upper bound.
  const Interval bounds = clopper_pearson(0, 10, 0.05);
  EXPECT_DOUBLE_EQ(bounds.lo, 0.0);
  EXPECT_NEAR(bounds.hi, 1.0 - std::pow(0.05, 1.0 / 10.0), 1e-9);
  EXPECT_NEAR(bounds.hi, 0.2589, 1e-4);
}

TEST(ClopperPearson, InteriorCount) {
  const Interval bounds = clopper_pearson(22, 200, 0.05);
  EXPECT_NEAR(bounds.lo, 0.0757, 1e-4);
  EXPECT_NEAR(bounds.hi, 0.1533, 1e-4);
}

TEST(ClopperPearson, NoTrials) {
  const Interval bounds = clopper_pearson(0, 0, 0.05);
  EXPECT_DOUBLE_EQ(bounds.lo, 0.0);
  EXPECT_DOUBLE_EQ(bounds.hi, 1.0);
}

TEST(ClopperPearson, MonotoneInSuccesses) {
  Interval previous = clopper_pearson(0, 40, 0.05);
  for (std::uint64_t k = 1; k <= 40; ++k) {
    const Interval bounds = clopper_pearson(k, 40, 0.05);
    EXPECT_GT(bounds.lo, previous.lo) << "k=" << k;
    EXPECT_GT(bounds.hi, previous.hi) << "k=" << k;
    EXPECT_LT(bounds.lo, static_cast<double>(k) / 40.0) << "k=" << k;
    EXPECT_GE(bounds.hi, static_cast<double>(k) / 40.0) << "k=" << k;
    previous = bounds;
  }
}

TEST(Quantile, KnownValues) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(median(values), 3.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  const std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.5);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> values{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(values), 3.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> values{7.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 7.0);
}

}  // namespace
}  // namespace churnet
