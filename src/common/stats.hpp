// Online statistics, binomial confidence bounds and quantiles used by the
// experiment engine, the paper-claim checks and the statistical test
// suites.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace churnet {

/// Welford online accumulator for mean/variance plus extremes.
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Merges another accumulator into this one (parallel-combine rule).
  void merge(const OnlineStats& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Standard error of the mean; 0 when fewer than two observations.
  double stderr_mean() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Confidence bounds [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Exact (Clopper-Pearson) one-sided bounds for a binomial proportion:
/// `lo` is the one-sided (1 - alpha) lower bound and `hi` the one-sided
/// (1 - alpha) upper bound of successes/trials, each solved from the
/// binomial tail by bisection. 0 trials give [0, 1]. Requires successes <=
/// trials and 0 < alpha < 1.
Interval clopper_pearson(std::uint64_t successes, std::uint64_t trials,
                         double alpha);

/// q-th quantile (0 <= q <= 1) by linear interpolation; sorts a copy.
double quantile(std::span<const double> values, double q);

/// Median convenience wrapper over quantile().
double median(std::span<const double> values);

}  // namespace churnet
