// Concrete metric observers wrapping the existing analyses (expansion/,
// graph/algorithms, flooding traces) behind the MetricObserver interface,
// attachable to any churn / flood / protocol run; sweeps attach them via
// ObserverSpec, and churnet_repro's claim rows read their columns.
//
// Seeding: begin_trial(s) seeds the observer RNG as Rng(s), so an observer
// fed a snapshot under a seed reproduces a direct call of the wrapped
// analysis with Rng(s) bit for bit (tests/test_observers.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expansion/expansion.hpp"
#include "expansion/isolated.hpp"
#include "expansion/spectral.hpp"
#include "observe/observer.hpp"

namespace churnet {

/// Vertex-expansion probe over random/adversarial candidate set families
/// (expansion/expansion.hpp). Metrics: expansion_min_ratio,
/// expansion_argmin_size, expansion_sets_probed; NaN on a snapshot of
/// fewer than two nodes.
class ExpansionObserver final : public MetricObserver {
 public:
  explicit ExpansionObserver(ProbeOptions options = {})
      : options_(options) {}

  /// The full probe result of the last on_snapshot (argmin family, ...).
  const ProbeResult& last() const { return last_; }

  std::string name() const override;
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_snapshot(const Snapshot& snapshot) override;
  bool wants_snapshot() const override { return true; }
  void append_values(std::vector<double>& out) const override;

 private:
  ProbeOptions options_;
  ProbeResult last_;
  bool observed_ = false;
};

/// Spectral gap of the lazy random walk via deflated power iteration
/// (expansion/spectral.hpp). Metrics: spectral_gap, spectral_lambda2,
/// spectral_converged; NaN on a snapshot of fewer than two nodes.
class SpectralObserver final : public MetricObserver {
 public:
  static constexpr std::uint32_t kDefaultIterations = 500;

  explicit SpectralObserver(std::uint32_t max_iterations = kDefaultIterations,
                            double tolerance = 1e-9)
      : max_iterations_(max_iterations), tolerance_(tolerance) {}

  const SpectralResult& last() const { return last_; }

  std::string name() const override;
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_snapshot(const Snapshot& snapshot) override;
  bool wants_snapshot() const override { return true; }
  void append_values(std::vector<double>& out) const override;

 private:
  std::uint32_t max_iterations_;
  double tolerance_;
  SpectralResult last_;
  bool observed_ = false;
};

/// Isolated-node census: the degree-0 count and fraction of the alive
/// nodes, read off the live graph at the measurement point. Equal to
/// isolated_census (expansion/isolated.hpp) of a snapshot of the same
/// instant. Metrics: isolated_count, isolated_fraction.
class IsolatedObserver final : public MetricObserver {
 public:
  std::string name() const override { return "isolated"; }
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_observe(const DynamicGraph& graph, double now) override;
  void append_values(std::vector<double>& out) const override;

 private:
  IsolatedCensus census_;
  bool observed_ = false;
  std::vector<NodeId> nodes_;  // alive-node scratch, reused
};

/// Degree distribution summary over the alive nodes' undirected degrees
/// on the live graph. Metrics: degree_mean, degree_min, degree_max,
/// degree_p50, degree_p90, degree_p99 (nearest-rank quantiles over the
/// degree multiset). The mean divides the integer degree sum, which is
/// exact in double, so neither it nor the quantiles depend on scan order.
class DegreeHistogramObserver final : public MetricObserver {
 public:
  std::string name() const override { return "degrees"; }
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_observe(const DynamicGraph& graph, double now) override;
  void append_values(std::vector<double>& out) const override;

 private:
  struct Summary {
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };

  std::vector<NodeId> nodes_;           // alive-node scratch, reused
  std::vector<std::uint32_t> degrees_;  // sorted degrees, reused
  Summary summary_;
  bool observed_ = false;
};

/// Node-age distribution summary (ages in model time units at the
/// measurement instant). Metrics: age_mean, age_p50, age_p90, age_max.
/// Ages are summed oldest first (append_alive_oldest_first, the snapshot's
/// index order), which pins the floating-point mean.
class AgeHistogramObserver final : public MetricObserver {
 public:
  std::string name() const override { return "ages"; }
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_observe(const DynamicGraph& graph, double now) override;
  void append_values(std::vector<double>& out) const override;

 private:
  struct Summary {
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double max = 0.0;
  };

  std::vector<NodeId> nodes_;  // alive nodes oldest first, reused
  std::vector<double> ages_;   // sorted ages, reused
  Summary summary_;
  bool observed_ = false;
};

/// Flooding / protocol coverage curve derivatives. Metrics: coverage_step
/// (first step with informed >= target * alive; NaN if never reached or
/// the trace recorded no series), coverage_final (informed/alive at stop),
/// coverage_auc (mean informed/alive over the recorded steps — the
/// normalized area under the coverage curve).
class CoverageObserver final : public MetricObserver {
 public:
  static constexpr double kDefaultTarget = 0.5;

  explicit CoverageObserver(double target_fraction = kDefaultTarget)
      : target_(target_fraction) {}

  double target_fraction() const { return target_; }

  std::string name() const override;
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_dissemination(const FloodTrace& trace,
                        const ProtocolStats* stats) override;
  bool wants_dissemination() const override { return true; }
  void append_values(std::vector<double>& out) const override;

 private:
  double target_;
  double step_ = 0.0;
  double final_ = 0.0;
  double auc_ = 0.0;
  bool observed_ = false;
};

/// Alive-population trajectory over an observation window of churn rounds
/// (the per-round hook's reference consumer). Metrics: alive_mean,
/// alive_min, alive_max over the window's per-round alive counts.
class DemographyObserver final : public MetricObserver {
 public:
  static constexpr std::uint32_t kDefaultWindow = 64;

  explicit DemographyObserver(std::uint32_t window_rounds = kDefaultWindow)
      : window_(window_rounds) {}

  std::string name() const override;
  void append_metric_names(std::vector<std::string>& out) const override;
  void begin_trial(std::uint64_t seed) override;
  void on_round(const DynamicGraph& graph, double now) override;
  std::uint32_t observation_rounds() const override { return window_; }
  void append_values(std::vector<double>& out) const override;

 private:
  std::uint32_t window_;
  std::uint64_t rounds_seen_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace churnet
