// Classic graph algorithms over snapshots: BFS, connected components,
// degree statistics. These feed the flooding/expansion analyses and the
// benches' structural sanity columns.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"

namespace churnet {

/// BFS hop distances from `source`; -1 marks unreachable nodes.
std::vector<std::int32_t> bfs_distances(const Snapshot& snapshot,
                                        std::uint32_t source);

/// Eccentricity of `source` within its component (max finite BFS distance).
std::uint32_t eccentricity(const Snapshot& snapshot, std::uint32_t source);

/// Connected-component labelling.
struct Components {
  std::vector<std::uint32_t> label;   // per node component id, dense from 0
  std::uint32_t count = 0;
  std::uint32_t largest_size = 0;
  std::uint32_t largest_label = 0;
};
Components connected_components(const Snapshot& snapshot);

/// Degree summary over a snapshot (degrees count parallel edges).
struct DegreeStats {
  double mean = 0.0;
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  std::uint32_t isolated = 0;  // degree-0 node count
};
DegreeStats degree_stats(const Snapshot& snapshot);

/// The same summary read from the live graph's alive nodes, without a
/// snapshot or an allocation. Equal to degree_stats(Snapshot::capture(
/// graph, t)) bit for bit: min, max and the isolated count do not depend
/// on the visiting order, and the mean divides the integer degree sum
/// (2|E| in any order), which the snapshot's double sum also holds
/// exactly below 2^53.
DegreeStats degree_stats(const DynamicGraph& graph);

}  // namespace churnet
