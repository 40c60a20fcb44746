#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assertx.hpp"
#include "common/mathx.hpp"

namespace churnet {

void OnlineStats::add(double x) {
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

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const {
  CHURNET_EXPECTS(count_ > 0);
  return min_;
}

double OnlineStats::max() const {
  CHURNET_EXPECTS(count_ > 0);
  return max_;
}

double OnlineStats::stderr_mean() const {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {

/// P[X <= k] for X ~ Binomial(n, p), 0 < p < 1.
double binomial_cdf(std::uint64_t n, std::uint64_t k, double p) {
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double sum = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) {
    sum += std::exp(log_binomial(n, i) + static_cast<double>(i) * log_p +
                    static_cast<double>(n - i) * log_q);
  }
  return std::min(sum, 1.0);
}

/// The p in (0, 1) with P[X <= k] = target; the cdf falls as p grows.
double solve_binomial_cdf(std::uint64_t n, std::uint64_t k, double target) {
  double lo = 0.0;
  double hi = 1.0;
  for (int iteration = 0; iteration < 64; ++iteration) {
    const double mid = 0.5 * (lo + hi);
    (binomial_cdf(n, k, mid) > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

Interval clopper_pearson(std::uint64_t successes, std::uint64_t trials,
                         double alpha) {
  CHURNET_EXPECTS(successes <= trials);
  CHURNET_EXPECTS(alpha > 0.0 && alpha < 1.0);
  Interval bounds{0.0, 1.0};
  // lo solves P[X >= k | lo] = alpha, hi solves P[X <= k | hi] = alpha.
  if (successes > 0) {
    bounds.lo = solve_binomial_cdf(trials, successes - 1, 1.0 - alpha);
  }
  if (successes < trials) {
    bounds.hi = solve_binomial_cdf(trials, successes, alpha);
  }
  return bounds;
}

double quantile(std::span<const double> values, double q) {
  CHURNET_EXPECTS(!values.empty());
  CHURNET_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

}  // namespace churnet
