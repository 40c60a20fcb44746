// Graph change feed: the delta stream the dissemination driver
// (protocols/dissemination.hpp) reads to learn each churn step's deaths and
// new edges; tests/test_change_feed.cpp replays it as the contract's oracle.
//
// A ChangeFeed is a caller-owned scratch ring, the recording sibling of
// RemovalScratch: a DynamicGraph with a feed attached appends one GraphDelta
// per mutation (birth, death, edge set, edge clear) into the feed's pooled
// buffer. The consumer drains with deltas() + clear(); capacity is retained
// across clears, so steady-state recording performs zero heap allocations
// once the buffer has grown to the peak per-window delta count.
//
// The delta contract (DESIGN.md, decision 15):
//
//   * Deltas appear in exact mutation order. Replaying them against a copy
//     of the graph's adjacency taken at the last drain reconstructs the
//     current adjacency (tests/test_graph_stress.cpp proves this against
//     the shadow model).
//   * kEdgeClear deltas for a dying node's incident edges precede its
//     kDeath delta (both directions: its own out-edges first, in slot
//     order, then the out-slots of other nodes that pointed at it, in
//     in-list order — the same deterministic order as RemovalScratch's
//     orphan report). A consumer therefore never sees an edge delta naming
//     a node whose death it has already seen.
//   * NodeIds in deltas are generation-qualified: `target` of a kEdgeClear
//     emitted during a removal names the still-alive generation of the
//     peer, captured before detachment.
//   * kBirth carries the node's out-slot count in `index` and its model
//     birth timestamp in `time`; new out-slots are born dangling, so a
//     birth implies no edges.
//
// Bulk genesis wiring (bulk_wire_genesis) bypasses per-edge mutators and
// does not emit deltas; DynamicGraph rejects it while a feed is attached,
// and the model layer falls back to the exact sequential round loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/node_id.hpp"

namespace churnet {

/// One graph mutation, 32 bytes.
struct GraphDelta {
  enum class Kind : std::uint32_t {
    kBirth,      // node born: `node` = id, `index` = out-slot count,
                 // `time` = birth timestamp
    kDeath,      // node died: `node` = id (its edge clears precede this)
    kEdgeSet,    // out-slot `index` of `node` now points at `target`
    kEdgeClear,  // out-slot `index` of `node` detached from `target`
  };

  Kind kind = Kind::kBirth;
  std::uint32_t index = 0;
  NodeId node;
  NodeId target;
  double time = 0.0;

  friend bool operator==(const GraphDelta&, const GraphDelta&) = default;
};

/// Caller-owned delta buffer a DynamicGraph records into (see
/// DynamicGraph::attach_change_feed). Not thread-safe; one feed per graph.
class ChangeFeed {
 public:
  /// The recorded deltas, in mutation order, since the last clear().
  std::span<const GraphDelta> deltas() const { return deltas_; }

  std::size_t size() const { return deltas_.size(); }
  bool empty() const { return deltas_.empty(); }

  /// Drops all recorded deltas, retaining capacity (zero-allocation reuse).
  void clear() { deltas_.clear(); }

  // ---- recording interface (called by DynamicGraph) --------------------

  void record_birth(NodeId node, std::uint32_t out_slots, double time) {
    deltas_.push_back(
        GraphDelta{GraphDelta::Kind::kBirth, out_slots, node, kInvalidNode,
                   time});
  }
  void record_death(NodeId node) {
    deltas_.push_back(
        GraphDelta{GraphDelta::Kind::kDeath, 0, node, kInvalidNode, 0.0});
  }
  void record_edge_set(NodeId owner, std::uint32_t index, NodeId target) {
    deltas_.push_back(
        GraphDelta{GraphDelta::Kind::kEdgeSet, index, owner, target, 0.0});
  }
  void record_edge_clear(NodeId owner, std::uint32_t index, NodeId target) {
    deltas_.push_back(
        GraphDelta{GraphDelta::Kind::kEdgeClear, index, owner, target, 0.0});
  }

 private:
  std::vector<GraphDelta> deltas_;
};

}  // namespace churnet
