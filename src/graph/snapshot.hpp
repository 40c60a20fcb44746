// Immutable CSR snapshot of a DynamicGraph at one instant.
//
// Analyses (expansion, BFS, components, degree statistics) run on snapshots:
// they are cache-friendly, cannot be invalidated by churn, and give every
// alive node a dense index. Indices are assigned oldest-first (ascending
// birth sequence), which the demographic analyses of Section 4 rely on.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assertx.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_id.hpp"

namespace churnet {

/// Appends the alive nodes of `graph` to `out` oldest first (ascending
/// birth sequence): the snapshot's index order, and the order in which the
/// age census sums ages, so both see one walk.
void append_alive_oldest_first(const DynamicGraph& graph,
                               std::vector<NodeId>& out);

class Snapshot {
 public:
  /// Captures the current alive subgraph of `graph` at time `now`
  /// (used to report node ages).
  static Snapshot capture(const DynamicGraph& graph, double now);

  /// Builds a static snapshot from an explicit undirected edge list over
  /// nodes 0..n-1 (used by baselines and tests). NodeIds are synthetic
  /// ({slot=i, generation=0}), birth order equals index order, all ages 0.
  static Snapshot from_edges(
      std::uint32_t n,
      std::span<const std::pair<std::uint32_t, std::uint32_t>> edges);

  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(node_ids_.size());
  }
  /// Undirected edge count (each request edge counted once).
  std::uint64_t edge_count() const { return adjacency_.size() / 2; }

  /// Neighbors of node `index`, with multiplicity for parallel edges.
  /// Inline: the observer kernels call it once per row or candidate.
  std::span<const std::uint32_t> neighbors(std::uint32_t index) const {
    CHURNET_EXPECTS(index < node_count());
    return {adjacency_.data() + offsets_[index],
            adjacency_.data() + offsets_[index + 1]};
  }

  std::uint32_t degree(std::uint32_t index) const {
    CHURNET_EXPECTS(index < node_count());
    return static_cast<std::uint32_t>(offsets_[index + 1] - offsets_[index]);
  }

  /// Dense index -> stable NodeId in the originating graph.
  NodeId node_id(std::uint32_t index) const { return node_ids_.at(index); }

  /// Global birth sequence number of node `index` (monotone with age:
  /// smaller == older). Indices are sorted by this, ascending.
  std::uint64_t birth_seq(std::uint32_t index) const {
    return birth_seqs_.at(index);
  }

  /// Age of node `index` at capture time, in model time units.
  double age(std::uint32_t index) const { return ages_.at(index); }

  /// Capture timestamp.
  double time() const { return time_; }

 private:
  double time_ = 0.0;
  std::vector<NodeId> node_ids_;
  std::vector<std::uint64_t> birth_seqs_;
  std::vector<double> ages_;
  std::vector<std::uint64_t> offsets_;     // size node_count()+1
  std::vector<std::uint32_t> adjacency_;   // concatenated neighbor lists
};

}  // namespace churnet
