#include "observe/observers.hpp"

#include <algorithm>
#include <limits>

#include "common/specgram.hpp"
#include "common/table.hpp"

namespace churnet {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Nearest-rank quantile over a sorted, non-empty range.
template <typename T>
double quantile(const std::vector<T>& sorted, double p) {
  const std::size_t n = sorted.size();
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(n - 1) + 0.5);
  return static_cast<double>(sorted[std::min(index, n - 1)]);
}

}  // namespace

// ---- ExpansionObserver -----------------------------------------------------

std::string ExpansionObserver::name() const {
  return "expansion(" + fmt_int(options_.random_sets_per_size) + ")";
}

void ExpansionObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("expansion_min_ratio");
  out.push_back("expansion_argmin_size");
  out.push_back("expansion_sets_probed");
}

void ExpansionObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  last_ = ProbeResult{};
  observed_ = false;
}

void ExpansionObserver::on_snapshot(const Snapshot& snapshot) {
  // A set and its complement need two nodes: with fewer, the columns stay
  // NaN, as for a trial with no observation.
  if (snapshot.node_count() < 2) return;
  last_ = probe_expansion(snapshot, rng_, options_);
  observed_ = true;
}

void ExpansionObserver::append_values(std::vector<double>& out) const {
  out.push_back(observed_ ? last_.min_ratio : kNan);
  out.push_back(observed_ ? static_cast<double>(last_.argmin_size) : kNan);
  out.push_back(observed_ ? static_cast<double>(last_.sets_probed) : kNan);
}

// ---- SpectralObserver ------------------------------------------------------

std::string SpectralObserver::name() const {
  return max_iterations_ == kDefaultIterations
             ? "spectral"
             : "spectral(" + fmt_int(max_iterations_) + ")";
}

void SpectralObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("spectral_gap");
  out.push_back("spectral_lambda2");
  out.push_back("spectral_converged");
}

void SpectralObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  last_ = SpectralResult{};
  observed_ = false;
}

void SpectralObserver::on_snapshot(const Snapshot& snapshot) {
  // The walk has no second eigenvalue on fewer than two nodes: the
  // columns stay NaN, as for a trial with no observation.
  if (snapshot.node_count() < 2) return;
  last_ = spectral_gap(snapshot, rng_, max_iterations_, tolerance_);
  observed_ = true;
}

void SpectralObserver::append_values(std::vector<double>& out) const {
  out.push_back(observed_ ? last_.spectral_gap : kNan);
  out.push_back(observed_ ? last_.lambda2 : kNan);
  out.push_back(observed_ ? (last_.converged ? 1.0 : 0.0) : kNan);
}

// ---- IsolatedObserver ------------------------------------------------------

void IsolatedObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("isolated_count");
  out.push_back("isolated_fraction");
}

void IsolatedObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  census_ = IsolatedCensus{};
  observed_ = false;
}

void IsolatedObserver::on_observe(const DynamicGraph& graph, double now) {
  (void)now;
  nodes_.clear();
  graph.append_alive_nodes(nodes_);
  census_ = IsolatedCensus{};
  census_.total_nodes = nodes_.size();
  for (const NodeId id : nodes_) {
    if (graph.degree(id) == 0) ++census_.isolated_nodes;
  }
  census_.fraction = census_.total_nodes == 0
                         ? 0.0
                         : static_cast<double>(census_.isolated_nodes) /
                               static_cast<double>(census_.total_nodes);
  observed_ = true;
}

void IsolatedObserver::append_values(std::vector<double>& out) const {
  out.push_back(observed_ ? static_cast<double>(census_.isolated_nodes)
                          : kNan);
  out.push_back(observed_ ? census_.fraction : kNan);
}

// ---- DegreeHistogramObserver -----------------------------------------------

void DegreeHistogramObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("degree_mean");
  out.push_back("degree_min");
  out.push_back("degree_max");
  out.push_back("degree_p50");
  out.push_back("degree_p90");
  out.push_back("degree_p99");
}

void DegreeHistogramObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  degrees_.clear();
  summary_ = Summary{};
  observed_ = false;
}

void DegreeHistogramObserver::on_observe(const DynamicGraph& graph,
                                         double now) {
  (void)now;
  nodes_.clear();
  graph.append_alive_nodes(nodes_);
  degrees_.clear();
  degrees_.reserve(nodes_.size());
  std::uint64_t sum = 0;
  for (const NodeId id : nodes_) {
    const std::uint32_t degree = graph.degree(id);
    degrees_.push_back(degree);
    sum += degree;
  }
  std::sort(degrees_.begin(), degrees_.end());
  observed_ = !degrees_.empty();
  if (!observed_) {
    summary_ = Summary{};
    return;
  }
  summary_.mean =
      static_cast<double>(sum) / static_cast<double>(degrees_.size());
  summary_.min = static_cast<double>(degrees_.front());
  summary_.max = static_cast<double>(degrees_.back());
  summary_.p50 = quantile(degrees_, 0.50);
  summary_.p90 = quantile(degrees_, 0.90);
  summary_.p99 = quantile(degrees_, 0.99);
}

void DegreeHistogramObserver::append_values(std::vector<double>& out) const {
  if (!observed_) {
    out.insert(out.end(), 6, kNan);
    return;
  }
  out.push_back(summary_.mean);
  out.push_back(summary_.min);
  out.push_back(summary_.max);
  out.push_back(summary_.p50);
  out.push_back(summary_.p90);
  out.push_back(summary_.p99);
}

// ---- AgeHistogramObserver --------------------------------------------------

void AgeHistogramObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("age_mean");
  out.push_back("age_p50");
  out.push_back("age_p90");
  out.push_back("age_max");
}

void AgeHistogramObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  ages_.clear();
  summary_ = Summary{};
  observed_ = false;
}

void AgeHistogramObserver::on_observe(const DynamicGraph& graph, double now) {
  nodes_.clear();
  append_alive_oldest_first(graph, nodes_);
  ages_.clear();
  ages_.reserve(nodes_.size());
  double sum = 0.0;
  for (const NodeId id : nodes_) {
    const double age = now - graph.birth_time(id);
    ages_.push_back(age);
    sum += age;
  }
  observed_ = !ages_.empty();
  if (!observed_) {
    summary_ = Summary{};
    return;
  }
  summary_.mean = sum / static_cast<double>(ages_.size());
  std::sort(ages_.begin(), ages_.end());
  summary_.p50 = quantile(ages_, 0.50);
  summary_.p90 = quantile(ages_, 0.90);
  summary_.max = ages_.back();
}

void AgeHistogramObserver::append_values(std::vector<double>& out) const {
  if (!observed_) {
    out.insert(out.end(), 4, kNan);
    return;
  }
  out.push_back(summary_.mean);
  out.push_back(summary_.p50);
  out.push_back(summary_.p90);
  out.push_back(summary_.max);
}

// ---- CoverageObserver ------------------------------------------------------

std::string CoverageObserver::name() const {
  return "coverage(" + fmt_spec_arg(target_) + ")";
}

void CoverageObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("coverage_step");
  out.push_back("coverage_final");
  out.push_back("coverage_auc");
}

void CoverageObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  step_ = kNan;
  final_ = kNan;
  auc_ = kNan;
  observed_ = false;
}

void CoverageObserver::on_dissemination(const FloodTrace& trace,
                                        const ProtocolStats* stats) {
  (void)stats;
  final_ = trace.final_fraction;
  if (trace.informed_per_step.empty()) {
    // The run recorded no series (FloodOptions::record_series off): the
    // curve metrics are unobservable, only the final fraction is.
    step_ = kNan;
    auc_ = kNan;
  } else {
    const std::uint64_t step = trace.step_reaching_fraction(target_);
    step_ = step == FloodTrace::kNever ? kNan : static_cast<double>(step);
    double sum = 0.0;
    std::size_t counted = 0;
    for (std::size_t t = 0; t < trace.informed_per_step.size(); ++t) {
      const std::uint64_t alive = trace.alive_per_step[t];
      if (alive == 0) continue;
      sum += static_cast<double>(trace.informed_per_step[t]) /
             static_cast<double>(alive);
      ++counted;
    }
    auc_ = counted == 0 ? kNan : sum / static_cast<double>(counted);
  }
  observed_ = true;
}

void CoverageObserver::append_values(std::vector<double>& out) const {
  out.push_back(observed_ ? step_ : kNan);
  out.push_back(observed_ ? final_ : kNan);
  out.push_back(observed_ ? auc_ : kNan);
}

// ---- DemographyObserver ----------------------------------------------------

std::string DemographyObserver::name() const {
  return "demography(" + fmt_int(window_) + ")";
}

void DemographyObserver::append_metric_names(
    std::vector<std::string>& out) const {
  out.push_back("alive_mean");
  out.push_back("alive_min");
  out.push_back("alive_max");
}

void DemographyObserver::begin_trial(std::uint64_t seed) {
  rng_ = Rng(seed);
  rounds_seen_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

void DemographyObserver::on_round(const DynamicGraph& graph, double now) {
  (void)now;
  const std::uint64_t alive = graph.alive_count();
  if (rounds_seen_ == 0) {
    min_ = alive;
    max_ = alive;
  } else {
    min_ = std::min(min_, alive);
    max_ = std::max(max_, alive);
  }
  sum_ += static_cast<double>(alive);
  ++rounds_seen_;
}

void DemographyObserver::append_values(std::vector<double>& out) const {
  if (rounds_seen_ == 0) {
    out.insert(out.end(), 3, kNan);
    return;
  }
  out.push_back(sum_ / static_cast<double>(rounds_seen_));
  out.push_back(static_cast<double>(min_));
  out.push_back(static_cast<double>(max_));
}

}  // namespace churnet
