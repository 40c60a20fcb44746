#include "graph/algorithms.hpp"

#include <algorithm>
#include <limits>

#include "common/assertx.hpp"

namespace churnet {

std::vector<std::int32_t> bfs_distances(const Snapshot& snapshot,
                                        std::uint32_t source) {
  CHURNET_EXPECTS(source < snapshot.node_count());
  std::vector<std::int32_t> dist(snapshot.node_count(), -1);
  std::vector<std::uint32_t> frontier{source};
  dist[source] = 0;
  std::int32_t depth = 0;
  std::vector<std::uint32_t> next;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (const std::uint32_t u : frontier) {
      for (const std::uint32_t v : snapshot.neighbors(u)) {
        if (dist[v] == -1) {
          dist[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::uint32_t eccentricity(const Snapshot& snapshot, std::uint32_t source) {
  const auto dist = bfs_distances(snapshot, source);
  std::int32_t max_dist = 0;
  for (const std::int32_t d : dist) max_dist = std::max(max_dist, d);
  return static_cast<std::uint32_t>(max_dist);
}

Components connected_components(const Snapshot& snapshot) {
  Components result;
  const std::uint32_t n = snapshot.node_count();
  result.label.assign(n, NodeId::kInvalidSlot);
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (result.label[start] != NodeId::kInvalidSlot) continue;
    const std::uint32_t component = result.count++;
    std::uint32_t size = 0;
    stack.push_back(start);
    result.label[start] = component;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      ++size;
      for (const std::uint32_t v : snapshot.neighbors(u)) {
        if (result.label[v] == NodeId::kInvalidSlot) {
          result.label[v] = component;
          stack.push_back(v);
        }
      }
    }
    sizes.push_back(size);
  }
  for (std::uint32_t c = 0; c < result.count; ++c) {
    if (sizes[c] > result.largest_size) {
      result.largest_size = sizes[c];
      result.largest_label = c;
    }
  }
  return result;
}

DegreeStats degree_stats(const Snapshot& snapshot) {
  DegreeStats stats;
  const std::uint32_t n = snapshot.node_count();
  if (n == 0) return stats;
  stats.min = snapshot.degree(0);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t d = snapshot.degree(i);
    sum += d;
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    if (d == 0) ++stats.isolated;
  }
  stats.mean = sum / static_cast<double>(n);
  return stats;
}

DegreeStats degree_stats(const DynamicGraph& graph) {
  DegreeStats stats;
  const std::uint32_t n = graph.alive_count();
  if (n == 0) return stats;
  stats.min = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t sum = 0;
  for (std::uint32_t slot = 0; slot < graph.slot_upper_bound(); ++slot) {
    if (!graph.slot_alive(slot)) continue;
    const std::uint32_t d = graph.degree(graph.alive_id_at(slot));
    sum += d;
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    if (d == 0) ++stats.isolated;
  }
  CHURNET_ASSERT(sum == 2 * graph.edge_count());
  stats.mean = static_cast<double>(sum) / static_cast<double>(n);
  return stats;
}

}  // namespace churnet
