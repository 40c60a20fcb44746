#include "models/static_network.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "common/assertx.hpp"

namespace churnet {
namespace {

void wire_dout(DynamicGraph& graph, Rng& rng, std::uint32_t n,
               std::uint32_t d) {
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes.push_back(graph.add_node(d, /*birth_time=*/0.0));
  }
  for (const NodeId owner : nodes) {
    for (std::uint32_t slot = 0; slot < d; ++slot) {
      const NodeId target = graph.random_alive_other(rng, owner);
      if (!target.valid()) continue;  // n == 1: slot stays dangling
      graph.set_out_edge(owner, slot, target);
    }
  }
}

void wire_erdos_renyi(DynamicGraph& graph, Rng& rng, std::uint32_t n,
                      double p) {
  CHURNET_EXPECTS(p >= 0.0 && p <= 1.0);
  // Sample the pair list first (geometric skipping, O(n + m) expected),
  // because DynamicGraph wants each node's out-slot count at add_node time.
  // Each sampled pair {i, j} with i < j becomes an out-edge owned by i.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> out_counts(n, 0);
  if (p > 0.0 && n >= 2) {
    const double log1mp = std::log1p(-p);
    if (p >= 1.0 || log1mp == 0.0) {
      for (std::uint32_t i = 0; i + 1 < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
          edges.emplace_back(i, j);
          ++out_counts[i];
        }
      }
    } else {
      // Batagelj–Brandes skip enumeration over pairs (w, v), w < v.
      std::int64_t v = 1;
      std::int64_t w = -1;
      while (v < static_cast<std::int64_t>(n)) {
        const double u = rng.real01();
        w += 1 + static_cast<std::int64_t>(std::floor(std::log1p(-u) /
                                                      log1mp));
        while (w >= v && v < static_cast<std::int64_t>(n)) {
          w -= v;
          ++v;
        }
        if (v < static_cast<std::int64_t>(n)) {
          const auto i = static_cast<std::uint32_t>(w);
          const auto j = static_cast<std::uint32_t>(v);
          edges.emplace_back(i, j);
          ++out_counts[i];
        }
      }
    }
  }

  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes.push_back(graph.add_node(out_counts[i], /*birth_time=*/0.0));
  }
  std::vector<std::uint32_t> next_slot(n, 0);
  for (const auto& [i, j] : edges) {
    graph.set_out_edge(nodes[i], next_slot[i]++, nodes[j]);
  }
}

}  // namespace

StaticNetwork::StaticNetwork(StaticConfig config, DynamicGraph recycled)
    : config_(config), graph_(std::move(recycled)), rng_(config.seed) {
  CHURNET_EXPECTS(config.n >= 1);
  graph_.clear();
  switch (config_.topology) {
    case StaticConfig::Topology::kDOut:
      graph_.reserve(config_.n, config_.d);
      wire_dout(graph_, rng_, config_.n, config_.d);
      break;
    case StaticConfig::Topology::kErdosRenyi: {
      double p = config_.p;
      if (p <= 0.0) {
        p = std::min(1.0, 2.0 * static_cast<double>(config_.d) /
                              static_cast<double>(config_.n));
      }
      wire_erdos_renyi(graph_, rng_, config_.n, p);
      break;
    }
  }
}

}  // namespace churnet
