#include "graph/snapshot.hpp"

#include <algorithm>

#include "common/assertx.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {
namespace {

/// Bytes materialized into a snapshot's arrays (telemetry accounting only).
std::uint64_t snapshot_bytes(std::size_t nodes, std::size_t adjacency) {
  return static_cast<std::uint64_t>(
      nodes * (sizeof(NodeId) + sizeof(std::uint64_t) + sizeof(double)) +
      (nodes + 1) * sizeof(std::uint64_t) +
      adjacency * sizeof(std::uint32_t));
}

}  // namespace

void append_alive_oldest_first(const DynamicGraph& graph,
                               std::vector<NodeId>& out) {
  const std::size_t first = out.size();
  graph.append_alive_nodes(out);
  std::sort(out.begin() + first, out.end(),
            [&](NodeId a, NodeId b) {
              return graph.birth_seq(a) < graph.birth_seq(b);
            });
}

Snapshot Snapshot::capture(const DynamicGraph& graph, double now) {
  const telemetry::PhaseTimer span(telemetry::Phase::kSnapshot);
  Snapshot snap;
  snap.time_ = now;
  append_alive_oldest_first(graph, snap.node_ids_);

  const auto n = static_cast<std::uint32_t>(snap.node_ids_.size());
  snap.birth_seqs_.resize(n);
  snap.ages_.resize(n);
  // Dense slot -> snapshot index map: alive nodes have distinct slots, so
  // this replaces hash lookups on the hot path.
  std::vector<std::uint32_t> slot_index(graph.slot_upper_bound(), 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id = snap.node_ids_[i];
    snap.birth_seqs_[i] = graph.birth_seq(id);
    snap.ages_[i] = now - graph.birth_time(id);
    slot_index[id.slot] = i;
  }

  // First pass: undirected degrees (out-edges contribute to both endpoints).
  std::vector<std::uint32_t> degrees(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id = snap.node_ids_[i];
    const std::uint32_t slots = graph.out_slot_count(id);
    for (std::uint32_t k = 0; k < slots; ++k) {
      const NodeId target = graph.out_target(id, k);
      if (!target.valid()) continue;
      ++degrees[i];
      ++degrees[slot_index[target.slot]];
    }
  }

  snap.offsets_.resize(n + 1);
  snap.offsets_[0] = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    snap.offsets_[i + 1] = snap.offsets_[i] + degrees[i];
  }
  snap.adjacency_.resize(snap.offsets_[n]);

  // Second pass: fill both directions.
  std::vector<std::uint64_t> cursor(snap.offsets_.begin(),
                                    snap.offsets_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id = snap.node_ids_[i];
    const std::uint32_t slots = graph.out_slot_count(id);
    for (std::uint32_t k = 0; k < slots; ++k) {
      const NodeId target = graph.out_target(id, k);
      if (!target.valid()) continue;
      const std::uint32_t j = slot_index[target.slot];
      snap.adjacency_[cursor[i]++] = j;
      snap.adjacency_[cursor[j]++] = i;
    }
  }
  telemetry::count(telemetry::Counter::kSnapshots);
  telemetry::count(telemetry::Counter::kSnapshotBytes,
                   snapshot_bytes(snap.node_ids_.size(),
                                  snap.adjacency_.size()));
  return snap;
}

Snapshot Snapshot::from_edges(
    std::uint32_t n,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges) {
  Snapshot snap;
  snap.time_ = 0.0;
  snap.node_ids_.resize(n);
  snap.birth_seqs_.resize(n);
  snap.ages_.assign(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    snap.node_ids_[i] = NodeId{i, 0};
    snap.birth_seqs_[i] = i;
  }
  std::vector<std::uint32_t> degrees(n, 0);
  for (const auto& [a, b] : edges) {
    CHURNET_EXPECTS(a < n && b < n);
    ++degrees[a];
    ++degrees[b];
  }
  snap.offsets_.resize(n + 1);
  snap.offsets_[0] = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    snap.offsets_[i + 1] = snap.offsets_[i] + degrees[i];
  }
  snap.adjacency_.resize(snap.offsets_[n]);
  std::vector<std::uint64_t> cursor(snap.offsets_.begin(),
                                    snap.offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    snap.adjacency_[cursor[a]++] = b;
    snap.adjacency_[cursor[b]++] = a;
  }
  return snap;
}

}  // namespace churnet
