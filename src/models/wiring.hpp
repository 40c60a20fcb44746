// Shared request-wiring helpers used by both network models.
//
// A "request" is one of a node's d out-edge slots (paper terminology). A
// request picks its destination uniformly at random among the other alive
// nodes; if no other node is alive the slot stays dangling (documented in
// DESIGN.md, "Dangling requests").
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "common/rng.hpp"
#include "graph/dynamic_graph.hpp"

namespace churnet {

/// Bounded-degree extension (paper Section 5 open question): when
/// max_in_degree > 0, a request redraws its uniform target up to
/// `attempts` times while the candidate's in-degree is at the cap; if all
/// attempts hit full nodes the request stays dangling (retried at the next
/// regeneration trigger). max_in_degree == 0 reproduces the paper's
/// unbounded models exactly.
struct WiringLimits {
  std::uint32_t max_in_degree = 0;  // 0 = unlimited (paper models)
  std::uint32_t attempts = 8;      // redraws before giving up
};

/// Arena reservation hint for continuous-churn models: the stationary
/// population lambda/mu plus four standard deviations of headroom (the
/// M/G/inf stationary size is Poisson(lambda/mu)), so steady-state pool
/// growth is a rare tail event. Capped at kMaxReserveHint slots (a NaN or
/// infinite ratio lands on the cap too): a reservation is only a hint, and
/// past the cap the arenas grow geometrically instead of allocating up
/// front for a population the run may never reach.
inline constexpr double kMaxReserveHint = 1 << 20;

inline std::uint32_t stationary_reserve_hint(double lambda, double mu) {
  const double expected = lambda / mu;
  const double hint = expected + 4.0 * std::sqrt(expected) + 8.0;
  return static_cast<std::uint32_t>(hint < kMaxReserveHint ? hint
                                                           : kMaxReserveHint);
}

}  // namespace churnet

namespace churnet::detail {

/// Draws a uniform random other node satisfying the in-degree cap;
/// invalid id if no acceptable target was found within the attempt budget.
inline NodeId draw_target(const DynamicGraph& graph, Rng& rng, NodeId owner,
                          const WiringLimits& limits) {
  if (limits.max_in_degree == 0) {
    return graph.random_alive_other(rng, owner);
  }
  for (std::uint32_t attempt = 0; attempt < limits.attempts; ++attempt) {
    const NodeId candidate = graph.random_alive_other(rng, owner);
    if (!candidate.valid()) return kInvalidNode;
    if (graph.in_degree(candidate) < limits.max_in_degree) return candidate;
  }
  return kInvalidNode;
}

/// Tile width for the unbounded-mode wiring fast path below: draws are
/// issued a tile at a time so the per-target cache misses overlap. 16 slots
/// of stack scratch cover the common d in one tile.
inline constexpr std::uint32_t kWiringTile = 16;

/// Unbounded-mode wiring core shared by initial requests and regeneration:
/// wires slot_at(0..count-1) to uniform random other nodes, a tile at a
/// time. In unbounded mode a request's target depends only on the alive set
/// and the RNG stream, and wiring earlier requests changes neither, so a
/// tile's draws can all be made before its edges are written. They go in
/// waves: the staged draw (DynamicGraph::random_alive_others) makes the
/// picks and resolves the alive-list entries and slot records, then the
/// targets' in-list insert positions are prefetched, and last the edges
/// are written. Draw order and edge order are those of the one-at-a-time
/// loop; the waves only overlap the misses. `slot_at(i)` names the i-th
/// out-slot to fill.
template <typename SlotAt>
inline void wire_uniform_tiled(DynamicGraph& graph, Rng& rng,
                               std::size_t count, const SlotAt& slot_at) {
  OutSlotRef slots[kWiringTile];
  NodeId owners[kWiringTile];
  NodeId targets[kWiringTile];
  for (std::size_t base = 0; base < count; base += kWiringTile) {
    const auto tile = static_cast<std::uint32_t>(
        std::min<std::size_t>(kWiringTile, count - base));
    for (std::uint32_t t = 0; t < tile; ++t) {
      slots[t] = slot_at(base + t);
      owners[t] = slots[t].owner;
    }
    graph.random_alive_others(rng, {owners, tile}, {targets, tile});
    for (std::uint32_t t = 0; t < tile; ++t) {
      graph.prefetch_in_insert(targets[t]);
    }
    for (std::uint32_t t = 0; t < tile; ++t) {
      if (!targets[t].valid()) continue;  // no other node alive
      graph.set_out_edge(slots[t].owner, slots[t].index, targets[t]);
    }
  }
}

/// Wires every dangling out-slot of `owner` to a uniform random other node.
inline void issue_initial_requests(DynamicGraph& graph, Rng& rng, NodeId owner,
                                   const WiringLimits& limits = {}) {
  const std::uint32_t slots = graph.out_slot_count(owner);
  if (limits.max_in_degree == 0) {
    wire_uniform_tiled(graph, rng, slots, [owner](std::size_t i) {
      return OutSlotRef{owner, static_cast<std::uint32_t>(i)};
    });
    return;
  }
  for (std::uint32_t i = 0; i < slots; ++i) {
    const NodeId target = draw_target(graph, rng, owner, limits);
    if (!target.valid()) continue;  // no acceptable target: stays dangling
    graph.set_out_edge(owner, i, target);
  }
}

/// Redraws the orphaned out-slots reported by DynamicGraph::remove_node
/// (callers pass their RemovalScratch's orphan buffer as the span).
/// Under regeneration this also retries any other dangling slots of the
/// same owners (they can only exist in the bounded-degree extension).
inline void regenerate_requests(DynamicGraph& graph, Rng& rng,
                                std::span<const OutSlotRef> orphans,
                                const WiringLimits& limits = {}) {
  if (limits.max_in_degree == 0) {
    wire_uniform_tiled(graph, rng, orphans.size(),
                       [orphans](std::size_t i) { return orphans[i]; });
    return;
  }
  for (const OutSlotRef& orphan : orphans) {
    const NodeId target = draw_target(graph, rng, orphan.owner, limits);
    if (!target.valid()) continue;
    graph.set_out_edge(orphan.owner, orphan.index, target);
  }
  for (const OutSlotRef& orphan : orphans) {
    const std::uint32_t slots = graph.out_slot_count(orphan.owner);
    for (std::uint32_t i = 0; i < slots; ++i) {
      if (graph.out_target(orphan.owner, i).valid()) continue;
      const NodeId target = draw_target(graph, rng, orphan.owner, limits);
      if (!target.valid()) break;
      graph.set_out_edge(orphan.owner, i, target);
    }
  }
}

}  // namespace churnet::detail
