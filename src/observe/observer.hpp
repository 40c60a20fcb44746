// The pluggable observation layer (DESIGN.md §6, decision 12): one
// interface every metric observer implements, generalizing the ad-hoc
// measurement loops of the bench binaries the same way ChurnProcess
// generalized churn and DisseminationProtocol generalized rumor spreading.
//
// A MetricObserver declares named metric columns and fills them from four
// driver hooks:
//
//   * on_round(graph, now)       -- once per churn step of the observation
//     window (trajectory metrics: demography, rates);
//   * on_snapshot(snapshot)      -- once per captured snapshot, shared by
//     every attached snapshot observer (structure metrics: expansion,
//     spectral gap);
//   * on_observe(graph, now)     -- once at the measurement point, on the
//     live graph (censuses: isolated nodes, degree and age summaries);
//   * on_dissemination(trace, stats) -- once per flood/protocol run
//     (coverage curves, message complexity derivatives).
//
// Observers are driver hooks rather than post-hoc snapshot scans because
// trajectory and coverage metrics need the run, not its final state — and
// because one shared snapshot serves every snapshot observer, instead of
// each analysis re-capturing its own.
//
// Contract:
//   * begin_trial(seed) fully resets per-trial state and reseeds the
//     observer's private RNG: an observer's values are a pure function of
//     (seed, observed inputs), which is what makes sweeps-with-observers
//     bit-identical at any thread count.
//   * RNG isolation: observers draw randomness (probe candidate sets,
//     power-iteration init vectors) ONLY from their own trial seed, never
//     from the network's RNG — attaching or removing observers never
//     changes the churn realization or any other measured value.
//   * Scratch reuse: instances are long-lived (one per worker, reused
//     across replications, the FloodScratch/ProtocolScratch convention);
//     begin_trial resets without deallocating, so replication loops do not
//     allocate through the observer once warmed.
//   * append_values appends exactly one value per declared metric name;
//     NaN marks a metric whose input was never observed this trial (e.g. a
//     coverage column when no dissemination ran).
//
// The observation lifecycle (DESIGN.md §6): begin_trial, the window's
// on_round calls, then one ObserverSet::observe(graph, now). observe()
// captures the set's one shared dense Snapshot only when some attached
// observer wants_snapshot(), offers it via on_snapshot, and then calls
// on_observe on every observer. Every driver observes once per trial.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flooding/flood_driver.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {

struct ProtocolStats;

class MetricObserver {
 public:
  virtual ~MetricObserver() = default;

  /// Canonical spec name, matching ObserverSpec::canonical() of the call
  /// that built it ("expansion(8)", "spectral", "coverage(0.50)", ...).
  virtual std::string name() const = 0;

  /// Appends this observer's metric column names, in the same order
  /// append_values emits values.
  virtual void append_metric_names(std::vector<std::string>& out) const = 0;

  /// Resets all per-trial state and reseeds the observer RNG. Values are a
  /// pure function of the seed and the subsequently observed inputs.
  virtual void begin_trial(std::uint64_t seed) = 0;

  /// Per-round hook: called after each churn step of the observation
  /// window (only when observation_rounds() > 0 for some attached
  /// observer; every attached observer sees every window round).
  virtual void on_round(const DynamicGraph& graph, double now) {
    (void)graph;
    (void)now;
  }

  /// Per-snapshot hook: called once with the trial's shared snapshot.
  virtual void on_snapshot(const Snapshot& snapshot) { (void)snapshot; }

  /// Measurement point on the live graph: called once per observation by
  /// ObserverSet::observe, after on_snapshot (if a snapshot was captured).
  /// The censuses measure here, without a snapshot.
  virtual void on_observe(const DynamicGraph& graph, double now) {
    (void)graph;
    (void)now;
  }

  /// Dissemination hook: the trial's flood/protocol run. `stats` is
  /// nullptr for a plain flood run (no message accounting).
  virtual void on_dissemination(const FloodTrace& trace,
                                const ProtocolStats* stats) {
    (void)trace;
    (void)stats;
  }

  /// True when this observer needs on_snapshot (lets drivers skip the
  /// snapshot capture entirely when nobody wants one).
  virtual bool wants_snapshot() const { return false; }

  /// True when this observer needs on_dissemination.
  virtual bool wants_dissemination() const { return false; }

  /// Churn rounds of observation window this observer wants before
  /// measurement; the driver advances the network by the maximum over the
  /// attached set. 0 = measure the warmed network as-is.
  virtual std::uint32_t observation_rounds() const { return 0; }

  /// Appends exactly one value per append_metric_names entry (NaN =
  /// unobserved this trial).
  virtual void append_values(std::vector<double>& out) const = 0;

 protected:
  Rng rng_{0};
};

/// An ordered set of observers driven as one unit: the shape every driver
/// (sweep jobs, observe_network, the ported benches) attaches.
///
/// begin_trial routes per-observer seeds as derive_seed(trial_seed, index,
/// 0) — each observer owns a stream decorrelated from its peers and from
/// everything else derived from the trial seed.
class ObserverSet {
 public:
  ObserverSet() = default;
  explicit ObserverSet(std::vector<std::unique_ptr<MetricObserver>> observers)
      : observers_(std::move(observers)) {}

  bool empty() const { return observers_.empty(); }
  std::size_t size() const { return observers_.size(); }
  MetricObserver& at(std::size_t i) { return *observers_[i]; }

  /// All metric column names, observer-major in set order.
  std::vector<std::string> metric_names() const {
    std::vector<std::string> names;
    for (const auto& observer : observers_) {
      observer->append_metric_names(names);
    }
    return names;
  }

  bool wants_snapshot() const {
    for (const auto& observer : observers_) {
      if (observer->wants_snapshot()) return true;
    }
    return false;
  }
  bool wants_dissemination() const {
    for (const auto& observer : observers_) {
      if (observer->wants_dissemination()) return true;
    }
    return false;
  }
  std::uint32_t observation_rounds() const {
    std::uint32_t rounds = 0;
    for (const auto& observer : observers_) {
      rounds = std::max(rounds, observer->observation_rounds());
    }
    return rounds;
  }

  void begin_trial(std::uint64_t trial_seed) {
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      observers_[i]->begin_trial(derive_seed(trial_seed, i, 0));
    }
  }

  /// The same as begin_trial: there is one observation path, so a trial
  /// needs no baseline scan. Kept because campaignbench/campaign_bench.cpp
  /// calls it.
  void begin_incremental_trial(std::uint64_t trial_seed,
                               const DynamicGraph& graph, double now) {
    (void)graph;
    (void)now;
    begin_trial(trial_seed);
  }

  void on_round(const DynamicGraph& graph, double now) {
    for (const auto& observer : observers_) observer->on_round(graph, now);
  }
  void on_snapshot(const Snapshot& snapshot) {
    for (const auto& observer : observers_) observer->on_snapshot(snapshot);
  }

  /// Does nothing: no observer reads graph deltas, the censuses scan the
  /// live graph in on_observe. Kept because campaignbench/campaign_bench.cpp
  /// calls it.
  void on_deltas(const DynamicGraph& graph,
                 std::span<const GraphDelta> deltas, double now) {
    (void)graph;
    (void)deltas;
    (void)now;
  }

  /// The measurement point: captures the set's one shared dense snapshot
  /// iff some observer wants_snapshot(), runs on_snapshot for the snapshot
  /// observers and on_observe for everyone. Returns the shared snapshot,
  /// or nullptr when none was captured — callers wanting snapshot-derived
  /// engine metrics can reuse it instead of capturing their own.
  const Snapshot* observe(const DynamicGraph& graph, double now) {
    const telemetry::PhaseTimer span(telemetry::Phase::kObserve);
    telemetry::count(telemetry::Counter::kObservations);
    const bool dense = wants_snapshot();
    if (dense) {
      snapshot_ = Snapshot::capture(graph, now);
      for (const auto& observer : observers_) {
        if (observer->wants_snapshot()) observer->on_snapshot(snapshot_);
      }
    }
    for (const auto& observer : observers_) observer->on_observe(graph, now);
    return dense ? &snapshot_ : nullptr;
  }
  void on_dissemination(const FloodTrace& trace, const ProtocolStats* stats) {
    for (const auto& observer : observers_) {
      observer->on_dissemination(trace, stats);
    }
  }
  void append_values(std::vector<double>& out) const {
    for (const auto& observer : observers_) observer->append_values(out);
  }

 private:
  std::vector<std::unique_ptr<MetricObserver>> observers_;
  Snapshot snapshot_;  // the last observe()'s shared dense snapshot
};

}  // namespace churnet
