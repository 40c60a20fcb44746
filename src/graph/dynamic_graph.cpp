// Cold paths of the flat-arena DynamicGraph: reservation, pool growth,
// whole-graph scans and the consistency audit. The hot mutators live in the
// header so model round loops inline them.
#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <bit>

namespace churnet {

void DynamicGraph::reserve(std::uint32_t nodes, std::uint32_t out_slots_hint) {
  // One extra slot of headroom: churn loops briefly hold n alive nodes plus
  // the round's newborn-to-be bookkeeping.
  const std::size_t slots = static_cast<std::size_t>(nodes) + 1;
  core_.reserve(slots);
  birth_seqs_.reserve(slots);
  birth_times_.reserve(slots);
  alive_slots_.reserve(slots);
  free_slots_.reserve(slots);
  out_pool_.reserve(slots * out_slots_hint);
  // Seed the chunk-size hint so a node's first in-list chunk already fits
  // the typical in-degree (~out_slots_hint); heavier nodes upgrade chunks
  // geometrically. Reserve one such chunk per slot plus 50% headroom for
  // the in-degree distribution's upper tail.
  first_in_cap_ = kMinInChunk
                  << in_class_of(std::max(out_slots_hint, kMinInChunk));
  out_free_.reserve(4);
  in_pool_.reserve(slots * first_in_cap_ + slots * first_in_cap_ / 2);
}

void DynamicGraph::clear() {
  core_.clear();
  birth_seqs_.clear();
  birth_times_.clear();
  out_pool_.clear();
  in_pool_.clear();
  alive_slots_.clear();
  free_slots_.clear();
  // A stride entry with no bases behaves as an absent one (acquire grows
  // the pool, release appends), so the entries and their capacity stay.
  for (OutFreeList& list : out_free_) list.bases.clear();
  for (std::vector<std::uint32_t>& list : in_free_) list.clear();
  first_in_cap_ = kMinInChunk;
  next_birth_seq_ = 0;
  edge_count_ = 0;
  feed_ = nullptr;
  degree_index_.reset();
}

std::size_t DynamicGraph::arena_bytes() const {
  const auto bytes = [](const auto& array) {
    return array.capacity() * sizeof(array[0]);
  };
  return bytes(core_) + bytes(birth_seqs_) + bytes(birth_times_) +
         bytes(out_pool_) + bytes(in_pool_) + bytes(alive_slots_) +
         bytes(free_slots_);
}

std::uint32_t DynamicGraph::grow_slot_arrays() {
  const auto slot_index = static_cast<std::uint32_t>(core_.size());
  CHURNET_EXPECTS(slot_index != NodeId::kInvalidSlot);
  core_.emplace_back();
  birth_seqs_.emplace_back();
  birth_times_.emplace_back();
  return slot_index;
}

std::vector<OutSlotRef> DynamicGraph::remove_node(NodeId node) {
  RemovalScratch scratch;
  remove_node(node, scratch);
  return std::move(scratch.orphans);
}

std::vector<NodeId> DynamicGraph::alive_nodes() const {
  std::vector<NodeId> nodes;
  append_alive_nodes(nodes);
  return nodes;
}

void DynamicGraph::append_alive_nodes(std::vector<NodeId>& out) const {
  out.reserve(out.size() + alive_slots_.size());
  for (const std::uint32_t slot_index : alive_slots_) {
    out.push_back(NodeId{slot_index, core_[slot_index].generation});
  }
}

void DynamicGraph::build_degree_index() const {
  if (!degree_index_) degree_index_.emplace();
  degree_index_->reset(static_cast<std::uint32_t>(core_.capacity()));
  for (const std::uint32_t slot : alive_slots_) {
    const SlotCore& core = core_[slot];
    degree_index_->insert(slot, live_out_edges(core) + core.in_count);
  }
}

bool DynamicGraph::check_consistency() const {
  // In-list chunk placement: every held and every free-listed chunk lies
  // inside the slab at a class capacity, no two overlap (one mark per pool
  // entry), and together they cover the slab, so no entry leaks.
  std::vector<bool> claimed(in_pool_.size(), false);
  std::uint64_t claimed_entries = 0;
  const auto claim_chunk = [&](std::uint32_t base, std::uint32_t cap) {
    if (!std::has_single_bit(cap) || cap < kMinInChunk ||
        cap > (kMinInChunk << (kInClassCount - 1))) {
      return false;
    }
    if (static_cast<std::uint64_t>(base) + cap > in_pool_.size()) return false;
    for (std::uint32_t i = base; i < base + cap; ++i) {
      if (claimed[i]) return false;
      claimed[i] = true;
    }
    claimed_entries += cap;
    return true;
  };
  for (std::uint32_t cls = 0; cls < kInClassCount; ++cls) {
    for (const std::uint32_t base : in_free_[cls]) {
      if (!claim_chunk(base, kMinInChunk << cls)) return false;
    }
  }

  std::uint64_t seen_edges = 0;
  for (std::uint32_t s = 0; s < core_.size(); ++s) {
    const SlotCore& core = core_[s];
    if (core.alive == 0) continue;
    if (core.alive_pos >= alive_slots_.size()) return false;
    if (alive_slots_[core.alive_pos] != s) return false;
    if (core.in_count > core.in_cap) return false;
    if (static_cast<std::uint64_t>(core.out_base) + core.out_count >
        out_pool_.size()) {
      return false;
    }
    if (core.in_cap > 0 && !claim_chunk(core.in_base, core.in_cap)) {
      return false;
    }
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      const OutEdge& edge = out_pool_[core.out_base + i];
      if (edge.peer == NodeId::kInvalidSlot) continue;
      ++seen_edges;
      if (edge.peer >= core_.size()) return false;
      const SlotCore& target_core = core_[edge.peer];
      if (target_core.alive == 0) return false;
      if (edge.in_pos >= target_core.in_count) return false;
      const InEdge& back = in_pool_[target_core.in_base + edge.in_pos];
      if (back.peer != s) return false;
      if (back.out_index != i) return false;
    }
    for (std::uint32_t i = 0; i < core.in_count; ++i) {
      const InEdge& in_edge = in_pool_[core.in_base + i];
      if (in_edge.peer >= core_.size()) return false;
      const SlotCore& source_core = core_[in_edge.peer];
      if (source_core.alive == 0) return false;
      if (in_edge.out_index >= source_core.out_count) return false;
      const OutEdge& out = out_pool_[source_core.out_base + in_edge.out_index];
      if (out.peer != s) return false;
      if (out.in_pos != i) return false;
    }
  }
  if (degree_index_) {
    if (degree_index_->size() != alive_slots_.size()) return false;
    for (const std::uint32_t s : alive_slots_) {
      const SlotCore& core = core_[s];
      if (!degree_index_->holds(s, live_out_edges(core) + core.in_count)) {
        return false;
      }
    }
  }
  return seen_edges == edge_count_ && claimed_entries == in_pool_.size();
}

std::uint32_t DynamicGraph::acquire_out_run(std::uint32_t stride) {
  for (OutFreeList& list : out_free_) {
    if (list.stride != stride) continue;
    if (list.bases.empty()) break;
    const std::uint32_t base = list.bases.back();
    list.bases.pop_back();
    return base;
  }
  const std::size_t base = out_pool_.size();
  CHURNET_EXPECTS(base + stride <= NodeId::kInvalidSlot);
  out_pool_.resize(base + stride);
  return static_cast<std::uint32_t>(base);
}

void DynamicGraph::release_out_run(std::uint32_t base, std::uint32_t stride) {
  for (OutFreeList& list : out_free_) {
    if (list.stride == stride) {
      list.bases.push_back(base);
      return;
    }
  }
  out_free_.push_back(OutFreeList{stride, {base}});
}

std::uint32_t DynamicGraph::acquire_in_chunk(std::uint32_t cls) {
  // The smallest class >= cls with a free chunk; LIFO within a class.
  std::uint32_t from = cls;
  while (from < kInClassCount && in_free_[from].empty()) ++from;
  if (from == kInClassCount) {
    const std::size_t base = in_pool_.size();
    const std::uint32_t cap = kMinInChunk << cls;
    CHURNET_EXPECTS(base + cap <= NodeId::kInvalidSlot);
    in_pool_.resize(base + cap);
    return static_cast<std::uint32_t>(base);
  }
  const std::uint32_t base = in_free_[from].back();
  in_free_[from].pop_back();
  // Buddy split without merging: keep the lowest piece, and free the upper
  // half at every class between, largest first.
  while (from > cls) {
    --from;
    in_free_[from].push_back(base + (kMinInChunk << from));
  }
  return base;
}

void DynamicGraph::grow_in_chunk(SlotCore& core) {
  // First chunk at the reserve() hint size, then geometric upgrades; the
  // retired chunk returns to its class free list, so steady-state churn
  // recycles chunks without touching the allocator. A class with no free
  // chunk splits a larger retired one before the slab grows: regeneration
  // frees founders' large chunks that newborns' small requests would
  // otherwise never reuse, and a growing slab copies itself.
  const std::uint32_t new_cap =
      core.in_cap == 0 ? first_in_cap_ : core.in_cap * 2;
  const std::uint32_t cls = in_class_of(new_cap);
  CHURNET_EXPECTS(cls < kInClassCount);
  const std::uint32_t new_base = acquire_in_chunk(cls);
  if (core.in_count > 0) {
    std::copy_n(in_pool_.begin() + core.in_base, core.in_count,
                in_pool_.begin() + new_base);
  }
  if (core.in_cap > 0) release_in_chunk(core.in_base, core.in_cap);
  core.in_base = new_base;
  core.in_cap = kMinInChunk << cls;
}

}  // namespace churnet
