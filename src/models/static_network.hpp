// Churn-free baseline networks behind the DynamicNetwork interface.
//
// The paper's reference points — the static d-out graph (Lemma B.1) and
// Erdős–Rényi G(n, p) — wrapped as degenerate dynamic networks: the wiring
// is sampled once at construction and step()/run_until() only advance the
// clock. This lets the scenario engine and the generic flooding driver
// treat "no churn" as just another model instead of a special code path
// (flooding a StaticNetwork is synchronous flooding = BFS rounds).
#pragma once

#include <cstdint>
#include <utility>

#include "common/assertx.hpp"
#include "common/rng.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"

namespace churnet {

struct StaticFloodSemantics;  // defined in flooding/flood_driver.hpp

struct StaticConfig {
  enum class Topology : std::uint8_t {
    kDOut,        // each node draws d uniform random other nodes (Lemma B.1)
    kErdosRenyi,  // G(n, p), each unordered pair independently with prob p
  };

  std::uint32_t n = 1000;
  std::uint32_t d = 8;  // out-requests per node (kDOut)
  Topology topology = Topology::kDOut;
  /// Edge probability for kErdosRenyi; 0 means "match the dynamic models'
  /// mean degree": p = 2d / n (a d-out node has expected total degree 2d).
  double p = 0.0;
  std::uint64_t seed = 1;
};

class StaticNetwork {
 public:
  /// Flooding on a frozen graph: BFS rounds, uniform random source.
  using flood_semantics = StaticFloodSemantics;

  /// Builds the network on `recycled`'s storage when one is passed: the
  /// graph is cleared first (DynamicGraph::clear), so the network equals
  /// one built fresh.
  explicit StaticNetwork(StaticConfig config, DynamicGraph recycled = {});

  /// Advances the clock by one round. No churn: the topology is immutable.
  void step() { now_ += 1.0; }

  /// Advances the clock in whole rounds until now() >= time.
  void run_until(double time) {
    CHURNET_EXPECTS(time >= now_);
    while (now_ < time) step();
  }

  /// No-op: a static graph is born stationary.
  void warm_up() {}

  Snapshot snapshot() const { return Snapshot::capture(graph_, now_); }

  const DynamicGraph& graph() const { return graph_; }
  /// Moves the graph out for reuse by a later build.
  DynamicGraph release_graph() { return std::move(graph_); }
  double now() const { return now_; }
  const StaticConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  /// Attaches a caller-owned change feed to the underlying graph so every
  /// churn mutation records a GraphDelta (graph/change_feed.hpp);
  /// nullptr detaches.
  void attach_change_feed(ChangeFeed* feed) {
    graph_.attach_change_feed(feed);
  }

 private:
  StaticConfig config_;
  DynamicGraph graph_;
  Rng rng_;
  double now_ = 0.0;
};

}  // namespace churnet
