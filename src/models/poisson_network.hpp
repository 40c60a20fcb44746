// Continuous-time dynamic graphs: PDG (paper Definition 4.9) and PDGR
// (Definition 4.14), selected by EdgePolicy — plus every continuous churn
// regime of the pluggable churn layer (heavy-tailed lifetimes, bursty
// on/off phases, growth/decline drifts).
//
// Demography is a ChurnProcess (churn/churn_process.hpp) named by the
// config's ChurnSpec; the default "poisson" spec is the exact jump chain of
// Lemma 4.6 (see churn/poisson_churn.hpp) and reproduces the paper's models
// bit-for-bit. On a birth the newborn issues d requests to uniform random
// existing nodes; on a death the victim is either drawn uniformly among the
// alive nodes (kUniform events — the memoryless regimes) or named by the
// process (kScheduled events — lifetime-expiry regimes), and, under
// EdgePolicy::kRegenerate, every surviving node that lost an out-edge
// instantly redraws it.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "churn/churn_process.hpp"
#include "churn/churn_spec.hpp"
#include "churn/poisson_churn.hpp"
#include "common/rng.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"
#include "models/edge_policy.hpp"

namespace churnet {

struct DiscretizedFloodSemantics;  // defined in flooding/flood_driver.hpp

struct PoissonConfig {
  double lambda = 1.0;  // birth rate (paper convention: 1)
  double mu = 1e-3;     // per-node death rate (paper convention: 1/n)
  std::uint32_t d = 8;  // requests per node
  EdgePolicy policy = EdgePolicy::kNone;
  std::uint64_t seed = 1;
  /// Bounded-degree extension (paper Section 5 open question): cap on
  /// in-degrees, enforced by redrawing requests. 0 = unlimited (the paper's
  /// models). See WiringLimits in models/wiring.hpp.
  std::uint32_t max_in_degree = 0;
  /// Which continuous churn regime drives demography; the default
  /// (Kind::kJumpChain, spec "poisson") is the paper's exact process.
  /// lambda and mu parameterize whichever regime is named.
  ChurnSpec churn{};

  /// Paper parameterization: lambda = 1, mu = 1/n.
  static PoissonConfig with_n(std::uint32_t n, std::uint32_t d,
                              EdgePolicy policy, std::uint64_t seed);

  /// Expected stationary size lambda/mu.
  double expected_size() const { return lambda / mu; }
};

class PoissonNetwork {
 public:
  /// Flooding semantics under the generic driver (paper Def. 4.3).
  using flood_semantics = DiscretizedFloodSemantics;

  /// Builds the network on `recycled`'s storage when one is passed: the
  /// graph is cleared first (DynamicGraph::clear), so the network equals
  /// one built fresh.
  explicit PoissonNetwork(PoissonConfig config, DynamicGraph recycled = {});

  /// One churn event (paper Definition 4.5: one "round" T_r).
  struct EventReport {
    ChurnEvent::Kind kind = ChurnEvent::Kind::kBirth;
    double time = 0.0;
    NodeId node;  // the node born or died
  };

  /// Executes the next churn event.
  EventReport step();

  /// Executes `events` churn events.
  void run_events(std::uint64_t events);

  /// Runs until continuous time strictly exceeds `time` (the event that
  /// crosses `time` is NOT executed; the clock parks exactly at `time`).
  void run_until(double time);

  /// Runs for `multiple` expected lifetimes (default 10/mu), enough for the
  /// size and age profile to reach stationarity (Lemma 4.4 uses t >= 3n).
  void warm_up(double multiple = 10.0);

  /// Age (continuous) of an alive node at the current clock.
  double age(NodeId node) const;

  Snapshot snapshot() const { return Snapshot::capture(graph_, now()); }

  const DynamicGraph& graph() const { return graph_; }
  /// Moves the graph out for reuse by a later build; the network is left
  /// without a graph and must not be stepped again.
  DynamicGraph release_graph() { return std::move(graph_); }
  /// Current clock: time of the last executed event, or the `run_until`
  /// barrier if that is later.
  double now() const { return now_; }
  /// Churn events sampled so far (paper: "rounds" T_r, Definition 4.5).
  std::uint64_t event_count() const { return events_; }
  const PoissonConfig& config() const { return config_; }
  /// The demography driving this network.
  const ChurnProcess& churn() const { return *churn_; }
  Rng& rng() { return rng_; }

  /// Attaches a caller-owned change feed to the underlying graph so every
  /// churn mutation records a GraphDelta (graph/change_feed.hpp);
  /// nullptr detaches.
  void attach_change_feed(ChangeFeed* feed) {
    graph_.attach_change_feed(feed);
  }

 private:
  EventReport apply(const ChurnProcess::Step& event);
  /// Samples (and counts) the next event into pending_.
  void sample_pending();

  PoissonConfig config_;
  std::unique_ptr<ChurnProcess> churn_;
  DynamicGraph graph_;
  Rng rng_;
  RemovalScratch removal_scratch_;  // reused across events; zero-alloc deaths
  double now_ = 0.0;
  std::uint64_t events_ = 0;
  bool pending_valid_ = false;
  ChurnProcess::Step pending_{};  // sampled but not yet executed
};

}  // namespace churnet
