#include "observe/observers.hpp"

#include <algorithm>
#include <limits>

#include "common/assertx.hpp"
#include "common/specgram.hpp"
#include "common/table.hpp"
#include "graph/algorithms.hpp"

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
  last_ = IsolatedCensus{};
  observed_ = false;
  live_ = false;
  isolated_ = 0;
  alive_ = 0;
}

void IsolatedObserver::on_trial_start(const DynamicGraph& graph, double now) {
  (void)now;
  live_ = true;
  slot_degrees_.assign(graph.slot_upper_bound(), 0);
  isolated_ = 0;
  scan_scratch_.clear();
  graph.append_alive_nodes(scan_scratch_);
  for (const NodeId id : scan_scratch_) {
    const std::uint32_t degree = graph.degree(id);
    slot_degrees_[id.slot] = degree;
    if (degree == 0) ++isolated_;
  }
  alive_ = graph.alive_count();
}

void IsolatedObserver::on_deltas(const DynamicGraph& graph,
                                 std::span<const GraphDelta> deltas,
                                 double now) {
  (void)graph;
  (void)now;
  if (!live_) return;
  auto ensure = [this](std::uint32_t slot) {
    if (slot >= slot_degrees_.size()) slot_degrees_.resize(slot + 1, 0);
  };
  for (const GraphDelta& delta : deltas) {
    switch (delta.kind) {
      case GraphDelta::Kind::kBirth:
        ensure(delta.node.slot);
        slot_degrees_[delta.node.slot] = 0;
        ++alive_;
        ++isolated_;
        break;
      case GraphDelta::Kind::kDeath:
        // The victim's edge clears precede its death (feed contract), so
        // its tracked degree is already zero.
        CHURNET_ASSERT(slot_degrees_[delta.node.slot] == 0);
        --alive_;
        --isolated_;
        break;
      case GraphDelta::Kind::kEdgeSet:
        ensure(delta.node.slot);
        ensure(delta.target.slot);
        if (slot_degrees_[delta.node.slot]++ == 0) --isolated_;
        if (slot_degrees_[delta.target.slot]++ == 0) --isolated_;
        break;
      case GraphDelta::Kind::kEdgeClear:
        if (--slot_degrees_[delta.node.slot] == 0) ++isolated_;
        if (--slot_degrees_[delta.target.slot] == 0) ++isolated_;
        break;
    }
  }
}

void IsolatedObserver::on_snapshot(const Snapshot& snapshot) {
  if (live_) return;  // delta-fed: measured in on_observe, snapshot unused
  last_ = isolated_census(snapshot);
  observed_ = true;
}

void IsolatedObserver::on_observe(const DynamicGraph& graph, double now) {
  (void)graph;
  (void)now;
  if (!live_) return;
  last_.isolated_nodes = isolated_;
  last_.total_nodes = alive_;
  last_.fraction = alive_ == 0 ? 0.0
                               : static_cast<double>(isolated_) /
                                     static_cast<double>(alive_);
  observed_ = true;
}

void IsolatedObserver::append_values(std::vector<double>& out) const {
  out.push_back(observed_ ? static_cast<double>(last_.isolated_nodes) : kNan);
  out.push_back(observed_ ? last_.fraction : kNan);
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
  live_ = false;
  degree_sum_ = 0;
  alive_ = 0;
}

void DegreeHistogramObserver::on_trial_start(const DynamicGraph& graph,
                                             double now) {
  (void)now;
  live_ = true;
  slot_degrees_.assign(graph.slot_upper_bound(), 0);
  hist_.assign(1, 0);
  degree_sum_ = 0;
  scan_scratch_.clear();
  graph.append_alive_nodes(scan_scratch_);
  for (const NodeId id : scan_scratch_) {
    const std::uint32_t degree = graph.degree(id);
    slot_degrees_[id.slot] = degree;
    if (degree >= hist_.size()) hist_.resize(degree + 1, 0);
    ++hist_[degree];
    degree_sum_ += degree;
  }
  alive_ = graph.alive_count();
}

void DegreeHistogramObserver::on_deltas(const DynamicGraph& graph,
                                        std::span<const GraphDelta> deltas,
                                        double now) {
  (void)graph;
  (void)now;
  if (!live_) return;
  auto ensure_slot = [this](std::uint32_t slot) {
    if (slot >= slot_degrees_.size()) slot_degrees_.resize(slot + 1, 0);
  };
  auto add_edge_end = [this](std::uint32_t slot) {
    std::uint32_t& degree = slot_degrees_[slot];
    --hist_[degree];
    ++degree;
    if (degree >= hist_.size()) hist_.resize(degree + 1, 0);
    ++hist_[degree];
    ++degree_sum_;
  };
  auto drop_edge_end = [this](std::uint32_t slot) {
    std::uint32_t& degree = slot_degrees_[slot];
    --hist_[degree];
    --degree;
    ++hist_[degree];
    --degree_sum_;
  };
  for (const GraphDelta& delta : deltas) {
    switch (delta.kind) {
      case GraphDelta::Kind::kBirth:
        ensure_slot(delta.node.slot);
        slot_degrees_[delta.node.slot] = 0;
        ++hist_[0];
        ++alive_;
        break;
      case GraphDelta::Kind::kDeath:
        CHURNET_ASSERT(slot_degrees_[delta.node.slot] == 0);
        --hist_[0];
        --alive_;
        break;
      case GraphDelta::Kind::kEdgeSet:
        ensure_slot(delta.node.slot);
        ensure_slot(delta.target.slot);
        add_edge_end(delta.node.slot);
        add_edge_end(delta.target.slot);
        break;
      case GraphDelta::Kind::kEdgeClear:
        drop_edge_end(delta.node.slot);
        drop_edge_end(delta.target.slot);
        break;
    }
  }
}

void DegreeHistogramObserver::on_snapshot(const Snapshot& snapshot) {
  if (live_) return;  // delta-fed: measured in on_observe off the histogram
  degrees_.clear();
  degrees_.reserve(snapshot.node_count());
  double sum = 0.0;
  for (std::uint32_t v = 0; v < snapshot.node_count(); ++v) {
    const std::uint32_t degree = snapshot.degree(v);
    degrees_.push_back(degree);
    sum += degree;
  }
  std::sort(degrees_.begin(), degrees_.end());
  observed_ = !degrees_.empty();
  if (!observed_) {
    summary_ = Summary{};
    return;
  }
  summary_.mean = sum / static_cast<double>(degrees_.size());
  summary_.min = static_cast<double>(degrees_.front());
  summary_.max = static_cast<double>(degrees_.back());
  summary_.p50 = quantile(degrees_, 0.50);
  summary_.p90 = quantile(degrees_, 0.90);
  summary_.p99 = quantile(degrees_, 0.99);
}

void DegreeHistogramObserver::on_observe(const DynamicGraph& graph,
                                         double now) {
  (void)graph;
  (void)now;
  if (!live_) return;
  const std::uint64_t n = alive_;
  observed_ = n > 0;
  if (!observed_) {
    summary_ = Summary{};
    return;
  }
  // Nearest-rank quantile of the sorted degree multiset, read off the
  // cumulative histogram — the element at sorted position `index` is the
  // smallest degree whose cumulative count exceeds it.
  auto hist_quantile = [this, n](double p) {
    const auto index = std::min(
        static_cast<std::uint64_t>(
            p * static_cast<double>(n - 1) + 0.5),
        n - 1);
    std::uint64_t cumulative = 0;
    for (std::size_t g = 0; g < hist_.size(); ++g) {
      cumulative += hist_[g];
      if (cumulative > index) return static_cast<double>(g);
    }
    CHURNET_ASSERT(false && "histogram count < population");
    return 0.0;
  };
  // The integer degree sum is exact in double far past any reachable edge
  // count, so this mean equals the from-scratch accumulation bit for bit.
  summary_.mean = static_cast<double>(degree_sum_) / static_cast<double>(n);
  summary_.min = hist_quantile(0.0);
  summary_.max = [this] {
    for (std::size_t g = hist_.size(); g-- > 0;) {
      if (hist_[g] != 0) return static_cast<double>(g);
    }
    return 0.0;
  }();
  summary_.p50 = hist_quantile(0.50);
  summary_.p90 = hist_quantile(0.90);
  summary_.p99 = hist_quantile(0.99);
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
  live_ = false;
  log_.clear();
  live_count_ = 0;
}

void AgeHistogramObserver::on_trial_start(const DynamicGraph& graph,
                                          double now) {
  (void)now;
  live_ = true;
  log_.clear();
  slot_to_log_.assign(graph.slot_upper_bound(), 0);
  std::vector<NodeId> nodes;
  graph.append_alive_nodes(nodes);
  // Seed the log in birth order (ascending birth sequence) — the snapshot
  // index order, which appends then preserve.
  std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return graph.birth_seq(a) < graph.birth_seq(b);
  });
  log_.reserve(nodes.size());
  for (const NodeId id : nodes) {
    slot_to_log_[id.slot] = log_.size();
    log_.push_back(LogEntry{graph.birth_time(id), id.slot, 1});
  }
  live_count_ = log_.size();
}

void AgeHistogramObserver::compact_log() {
  std::size_t kept = 0;
  for (const LogEntry& entry : log_) {
    if (entry.alive == 0) continue;
    slot_to_log_[entry.slot] = kept;
    log_[kept++] = entry;
  }
  log_.resize(kept);
}

void AgeHistogramObserver::on_deltas(const DynamicGraph& graph,
                                     std::span<const GraphDelta> deltas,
                                     double now) {
  (void)graph;
  (void)now;
  if (!live_) return;
  for (const GraphDelta& delta : deltas) {
    if (delta.kind == GraphDelta::Kind::kBirth) {
      if (delta.node.slot >= slot_to_log_.size()) {
        slot_to_log_.resize(delta.node.slot + 1, 0);
      }
      slot_to_log_[delta.node.slot] = log_.size();
      log_.push_back(LogEntry{delta.time, delta.node.slot, 1});
      ++live_count_;
    } else if (delta.kind == GraphDelta::Kind::kDeath) {
      LogEntry& entry = log_[slot_to_log_[delta.node.slot]];
      CHURNET_ASSERT(entry.slot == delta.node.slot && entry.alive != 0);
      entry.alive = 0;
      --live_count_;
    }
  }
  // Keep the tombstone overhead bounded: compact once dead entries
  // outnumber live ones (amortized O(1) per delta).
  if (log_.size() > 2 * live_count_ + 64) compact_log();
}

void AgeHistogramObserver::on_snapshot(const Snapshot& snapshot) {
  if (live_) return;  // delta-fed: measured in on_observe off the log
  ages_.clear();
  ages_.reserve(snapshot.node_count());
  double sum = 0.0;
  for (std::uint32_t v = 0; v < snapshot.node_count(); ++v) {
    const double age = snapshot.age(v);
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

void AgeHistogramObserver::on_observe(const DynamicGraph& graph, double now) {
  (void)graph;
  if (!live_) return;
  observed_ = live_count_ > 0;
  if (!observed_) {
    summary_ = Summary{};
    return;
  }
  // Walk the live log oldest-first: exactly the snapshot index order, so
  // the float sum matches the from-scratch accumulation bit for bit; and
  // ages along the walk are non-increasing (birth times ascend), so the
  // ascending-sorted multiset is this walk reversed.
  ages_.clear();
  ages_.reserve(live_count_);
  double sum = 0.0;
  for (const LogEntry& entry : log_) {
    if (entry.alive == 0) continue;
    const double age = now - entry.birth_time;
    ages_.push_back(age);
    sum += age;
  }
  const std::size_t n = ages_.size();
  CHURNET_ASSERT(n == live_count_);
  auto sorted_at = [this, n](double p) {
    const auto index = std::min(
        static_cast<std::size_t>(p * static_cast<double>(n - 1) + 0.5),
        n - 1);
    return ages_[n - 1 - index];  // descending walk, ascending quantile
  };
  summary_.mean = sum / static_cast<double>(n);
  summary_.p50 = sorted_at(0.50);
  summary_.p90 = sorted_at(0.90);
  summary_.max = ages_.front();
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
