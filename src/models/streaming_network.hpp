// Streaming dynamic graphs: SDG (paper Definition 3.4) and SDGR
// (Definition 3.13), selected by EdgePolicy.
//
// Round structure (Definition 3.2, clarified in DESIGN.md):
//   1. if the network holds n nodes, the oldest node dies; all its incident
//      edges disappear;
//   2. under EdgePolicy::kRegenerate, every surviving node that lost an
//      out-edge redraws it uniformly among the current nodes;
//   3. one node is born and issues d requests, each to a uniform random
//      node already in the network.
//
// Demography comes from the churn layer: the round schedule is a
// StreamingChurn driven exclusively through the ChurnProcess interface
// (churn/churn_process.hpp); this class only realizes births and deaths on
// the graph and owns the wiring RNG.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "churn/churn_spec.hpp"
#include "churn/streaming_churn.hpp"
#include "common/rng.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"
#include "models/edge_policy.hpp"

namespace churnet {

struct StreamingFloodSemantics;  // defined in flooding/flood_driver.hpp

struct StreamingConfig {
  std::uint32_t n = 1000;  // steady-state size == exact lifetime in rounds
  std::uint32_t d = 8;     // requests per node
  EdgePolicy policy = EdgePolicy::kNone;
  std::uint64_t seed = 1;
  /// Bounded-degree extension (paper Section 5 open question): cap on
  /// in-degrees, enforced by redrawing requests. 0 = unlimited (the paper's
  /// models). See WiringLimits in models/wiring.hpp.
  std::uint32_t max_in_degree = 0;
  /// Churn regime: kStream (the paper's schedule) or an adversarial spec
  /// (maxdeg/mindeg/cutset/eclipse), which keeps the round schedule but
  /// redirects budgeted deaths through AdversaryPolicy victim selection.
  ChurnSpec churn{ChurnSpec::Kind::kStream};
};

class StreamingNetwork {
 public:
  /// Flooding semantics under the generic driver (paper Def. 3.3).
  using flood_semantics = StreamingFloodSemantics;

  /// Builds the network on `recycled`'s storage when one is passed: the
  /// graph is cleared first (DynamicGraph::clear), so the network equals
  /// one built fresh.
  explicit StreamingNetwork(StreamingConfig config,
                            DynamicGraph recycled = {});

  /// What happened in one round.
  struct RoundReport {
    std::uint64_t round = 0;
    NodeId born;
    std::optional<NodeId> died;
  };

  /// Executes one round (death, regeneration, birth). O(d) amortized.
  RoundReport step();

  /// Executes `rounds` rounds.
  void run_rounds(std::uint64_t rounds);

  /// Runs whole rounds until now() >= time (the DynamicNetwork
  /// run-to-time primitive; streaming time is the integer round count).
  void run_until(double time);

  /// Runs rounds 1..n — the pure-growth phase in which every round is a
  /// birth and nobody dies. Produces a graph (and RNG/churn state)
  /// identical to run_rounds(n) from round 0, but in the paper's unbounded
  /// models with no change feed attached it runs the n births first and
  /// then lets DynamicGraph::bulk_wire_genesis draw the n·d requests in
  /// round order and install them — a cache-blocked streaming pass
  /// instead of n·d random-access inserts. Callable only from round 0.
  void run_growth_phase();

  /// Runs the initial 2n rounds: after n rounds the network reaches its
  /// pinned size n, and after another n rounds every founder that joined a
  /// smaller-than-n network (with correspondingly skewed wiring) has died.
  /// From round 2n on, every alive node issued its d requests into a
  /// full-size network -- the regime all of the paper's analyses assume.
  /// Callable only from round 0. The first n rounds go through
  /// run_growth_phase (same state, bulk-wired when eligible).
  void warm_up();

  /// Age in rounds of an alive node: 0 for this round's newborn, up to n-1.
  std::uint64_t age(NodeId node) const;

  /// Captures the current topology (time == round()).
  Snapshot snapshot() const { return Snapshot::capture(graph_, now()); }

  const DynamicGraph& graph() const { return graph_; }
  /// Moves the graph out for reuse by a later build; the network is left
  /// without a graph and must not be stepped again.
  DynamicGraph release_graph() { return std::move(graph_); }
  std::uint64_t round() const { return churn_.round(); }
  double now() const { return static_cast<double>(churn_.round()); }
  const StreamingConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  /// Attaches a caller-owned change feed to the underlying graph so every
  /// churn mutation records a GraphDelta (graph/change_feed.hpp);
  /// nullptr detaches.
  void attach_change_feed(ChangeFeed* feed) {
    graph_.attach_change_feed(feed);
  }

 private:
  StreamingConfig config_;
  StreamingChurn churn_;
  DynamicGraph graph_;
  Rng rng_;
  RemovalScratch removal_scratch_;  // reused across rounds; zero-alloc deaths
};

}  // namespace churnet
