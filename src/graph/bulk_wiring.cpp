// Bulk genesis wiring: installs a pure-growth phase's whole edge list in a
// few streaming passes instead of n·d random-access set_out_edge calls.
//
// During the growth phase of a streaming warm-up every round is a birth, so
// the model layer can run all n births first (the round schedule draws no
// wiring randomness) and then let this path draw the n·d requests in round
// order (owner slot r-1 targeting a uniform slot < r-1), each straight into
// its out-slot's peer word. Random insertion order is what makes
// sequential wiring slow at n=10M — every edge touches a random target's
// slot record and in-list, a guaranteed cache miss per edge. This path
// radix-buckets the drawn edges by target block (2^15 slots, so one
// block's records and in-lists stay cache-resident), then applies each
// block's edges in ascending edge order. No separate draw list is held:
// the out-pool itself carries the targets until their in-lists are built.
//
// Equivalence with the sequential path is by construction:
//   * RNG stream: the draws are rng.below(r-1) in round order, d per
//     round, none in round 1 — exactly what random_alive_other consumes
//     when slot r-1 is the newest of r alive nodes.
//   * per-target in-list contents: edges arrive in ascending e order inside
//     a block (the scatter is stable), which is the global chronological
//     order restricted to that target — exactly the sequential insert
//     order; in_pos values are the same insertion ranks.
//   * chunk capacities: a target with final in-degree deg ends at the
//     smallest first_in_cap_·2^k >= deg, the fixed point of grow_in_chunk's
//     doubling; where the chunk *lives* differs (block-contiguous carve vs
//     upgrade-and-recycle), but no observable API exposes placement.
//   * out runs: a freshly grown graph allocates out runs sequentially, so
//     slot s's run base is s·out_slots (asserted); entries end with the
//     same {peer, in_pos} values set_out_edge would store.
#include <algorithm>

#include "graph/dynamic_graph.hpp"

namespace churnet {

namespace {

/// Slots per radix block: 2^15 SlotCore records = 1 MiB, cache-resident
/// while a block's edges are applied.
constexpr std::uint32_t kBlockBits = 15;

}  // namespace

void DynamicGraph::bulk_wire_genesis(std::uint32_t out_slots, Rng& rng) {
  const std::uint32_t slot_count = static_cast<std::uint32_t>(core_.size());
  if (out_slots == 0 || slot_count == 0) return;
  const std::size_t edges = static_cast<std::size_t>(slot_count) * out_slots;
  CHURNET_EXPECTS(edges <= NodeId::kInvalidSlot);  // edge ids fit u32
  CHURNET_EXPECTS(alive_slots_.size() == slot_count);
  CHURNET_EXPECTS(out_pool_.size() == edges);
  // Bulk wiring bypasses the per-edge mutators and emits no deltas; a
  // consumer expecting the feed must use the sequential path instead.
  CHURNET_EXPECTS(feed_ == nullptr && "bulk wiring does not record deltas");

  // The draws, in round order: slot s joined a network of s other nodes,
  // which hold slots 0..s-1.
  for (std::uint32_t s = 1; s < slot_count; ++s) {
    CHURNET_ASSERT(alive_slots_[s] == s && core_[s].out_count == out_slots);
    OutEdge* const run = out_pool_.data() + static_cast<std::size_t>(s) *
                                                out_slots;
    for (std::uint32_t t = 0; t < out_slots; ++t) {
      CHURNET_ASSERT(run[t].peer == NodeId::kInvalidSlot);
      run[t].peer = static_cast<std::uint32_t>(rng.below(s));
    }
  }

  const std::size_t block_count =
      (static_cast<std::size_t>(slot_count) + (std::size_t{1} << kBlockBits) -
       1) >>
      kBlockBits;

  // Pass A: per-block histogram of valid edges, prefix-summed so that
  // block b's bucket is [block_begin[b], block_begin[b + 1]).
  std::vector<std::uint64_t> block_begin(block_count + 1, 0);
  for (std::size_t e = 0; e < edges; ++e) {
    const std::uint32_t target = out_pool_[e].peer;
    if (target == NodeId::kInvalidSlot) continue;
    ++block_begin[(target >> kBlockBits) + 1];
  }
  for (std::size_t b = 0; b < block_count; ++b) {
    block_begin[b + 1] += block_begin[b];
  }
  const std::uint64_t total = block_begin[block_count];

  // Pass B: stable scatter of edge ids into per-block buckets, in edge
  // order.
  std::vector<std::uint64_t> cursor(block_begin.begin(),
                                    block_begin.end() - 1);
  std::vector<std::uint32_t> bucket(total);
  for (std::size_t e = 0; e < edges; ++e) {
    const std::uint32_t target = out_pool_[e].peer;
    if (target == NodeId::kInvalidSlot) continue;
    bucket[cursor[target >> kBlockBits]++] = static_cast<std::uint32_t>(e);
  }

  // Pass C: per-block in-pool demand — the sum of each target's final
  // chunk capacity (grow_in_chunk's doubling fixed point).
  std::vector<std::uint32_t> degree;
  std::vector<std::uint64_t> block_cap(block_count, 0);
  auto count_block_degrees = [&](std::size_t b) {
    const std::uint32_t s0 = static_cast<std::uint32_t>(b << kBlockBits);
    const std::uint32_t s1 = std::min<std::uint32_t>(
        slot_count, static_cast<std::uint32_t>((b + 1) << kBlockBits));
    degree.assign(s1 - s0, 0);
    for (std::uint64_t i = block_begin[b]; i < block_begin[b + 1]; ++i) {
      ++degree[out_pool_[bucket[i]].peer - s0];
    }
    return std::pair<std::uint32_t, std::uint32_t>{s0, s1};
  };
  auto final_cap = [this](std::uint32_t degree) {
    std::uint32_t cap = first_in_cap_;
    while (cap < degree) cap *= 2;
    CHURNET_EXPECTS(in_class_of(cap) < kInClassCount);
    return cap;
  };
  for (std::size_t b = 0; b < block_count; ++b) {
    const auto [s0, s1] = count_block_degrees(b);
    std::uint64_t cap_sum = 0;
    for (std::uint32_t s = s0; s < s1; ++s) {
      if (degree[s - s0] > 0) cap_sum += final_cap(degree[s - s0]);
    }
    block_cap[b] = cap_sum;
  }

  // Carve one contiguous in-pool region per block. Headroom of one
  // first-sized chunk per slot keeps the post-growth churn rounds carving
  // within capacity (the steady-state zero-allocation invariant). A slab
  // that must grow takes 1/64 more, so that a recycled graph's next job of
  // the same cell, whose in-degrees differ by chance, fits what this one
  // grew (DynamicGraph::clear keeps the capacity).
  const std::size_t pool_base = in_pool_.size();
  std::vector<std::uint64_t> block_pool_base(block_count, 0);
  std::uint64_t pool_need = 0;
  for (std::size_t b = 0; b < block_count; ++b) {
    block_pool_base[b] = pool_base + pool_need;
    pool_need += block_cap[b];
  }
  CHURNET_EXPECTS(pool_base + pool_need <= NodeId::kInvalidSlot);
  const std::size_t headroom =
      static_cast<std::size_t>(slot_count) * first_in_cap_ / 2;
  const std::size_t want = pool_base + pool_need + headroom;
  if (in_pool_.capacity() < want) in_pool_.reserve(want + want / 64);
  in_pool_.resize(pool_base + pool_need);

  // Pass D: per-block apply. Each block's slots take the block's in-pool
  // region in slot order. Inserts run in ascending e order — the
  // sequential insertion order — so in-list contents and in_pos
  // back-pointers match the set_out_edge path exactly.
  for (std::size_t b = 0; b < block_count; ++b) {
    const auto [s0, s1] = count_block_degrees(b);
    std::uint64_t carve = block_pool_base[b];
    for (std::uint32_t s = s0; s < s1; ++s) {
      SlotCore& core = core_[s];
      CHURNET_ASSERT(core.alive != 0 && core.generation == 0);
      CHURNET_ASSERT(core.out_count == out_slots &&
                     core.out_base ==
                         static_cast<std::uint64_t>(s) * out_slots);
      CHURNET_ASSERT(core.in_count == 0 && core.in_cap == 0);
      const std::uint32_t d = degree[s - s0];
      if (d == 0) continue;
      core.in_base = static_cast<std::uint32_t>(carve);
      core.in_cap = final_cap(d);
      carve += core.in_cap;
    }
    CHURNET_ASSERT(carve == block_pool_base[b] + block_cap[b]);
    for (std::uint64_t i = block_begin[b]; i < block_begin[b + 1]; ++i) {
      const std::uint32_t e = bucket[i];
      const std::uint32_t target = out_pool_[e].peer;
      const std::uint32_t owner = e / out_slots;
      const std::uint32_t out_index = e % out_slots;
      CHURNET_ASSERT(owner != target);
      SlotCore& target_core = core_[target];
      const std::uint32_t pos = target_core.in_count++;
      in_pool_[target_core.in_base + pos] = InEdge{owner, out_index};
      out_pool_[static_cast<std::size_t>(owner) * out_slots + out_index] =
          OutEdge{target, pos};
    }
  }

  edge_count_ += total;
  // The passes above bypass the per-edge mutators.
  if (degree_index_) build_degree_index();
}

}  // namespace churnet
