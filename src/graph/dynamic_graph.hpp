// Dynamic adjacency structure for sparse graphs under node churn.
//
// This is the storage substrate shared by all four paper models. It supports
// the exact operations the models need, all in O(1) amortized (plus the
// degree of the dying node for removals):
//
//   * add_node                       -- birth
//   * set_out_edge / clear_out_edge  -- a node's d "requests" (paper Def 3.4)
//   * remove_node                    -- death; detaches every incident edge
//                                       and reports which out-slots of other
//                                       nodes were orphaned so the model
//                                       layer can regenerate them (Def 3.13)
//   * random_alive / random_alive_other(s) -- uniform sampling for
//                                       requests, one at a time or staged
//                                       for a wiring tile
//   * extreme_degree                 -- the max/min-degree node (degree
//                                       adversaries), from a bucket-queue
//                                       index built on the first call
//
// Edges are stored directed (owner -> target) mirroring the paper's
// "requests", but the graph is undirected for processes: neighbors(u) is the
// union of out-targets and in-sources. Parallel edges are allowed (requests
// are independent uniform choices); self-loops are rejected.
//
// Storage is a flat arena (DESIGN.md, "Memory layout" / decision 11):
// per-node out-slot runs live contiguously in one pooled array recycled
// through per-stride free lists, in-lists are capacity-class chunks carved
// from a slab pool (split from larger retired chunks before the slab
// grows), and hot per-slot metadata is a fixed 32-byte record.
// Pool entries are 8 bytes: they store the peer's slot index only, because
// both endpoints of a live edge are alive by construction, so the peer's
// generation is always recoverable from its slot record. Together with the
// caller-owned RemovalScratch for orphan reporting, the steady-state churn
// loop performs zero heap allocations: every birth and death recycles
// pooled runs instead of touching the allocator. The mutators live in this
// header so model round loops inline them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "graph/change_feed.hpp"
#include "graph/degree_index.hpp"
#include "graph/node_id.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {

/// Reference to one out-edge slot of a node (the i-th of its d requests).
struct OutSlotRef {
  NodeId owner;
  std::uint32_t index = 0;

  friend bool operator==(const OutSlotRef&, const OutSlotRef&) = default;
};

/// Caller-owned scratch for DynamicGraph::remove_node — the pooled-buffer
/// sibling of FloodScratch/ProtocolScratch. remove_node rewrites `orphans`
/// in place (clear + fill, capacity retained), so a churn loop that keeps
/// one RemovalScratch alive does zero per-death allocation once the buffer
/// has grown to the peak orphan count. The contents are valid until the
/// next remove_node call with the same scratch.
struct RemovalScratch {
  std::vector<OutSlotRef> orphans;
};

class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Pre-sizes every arena for a population of `nodes` nodes with
  /// `out_slots_hint` out-slots each, so a warmed-up churn loop never grows
  /// a pool. Also seeds the initial in-list chunk capacity so typical
  /// in-degrees (~out_slots_hint) need at most one chunk upgrade. Purely a
  /// capacity hint: the graph remains correct (and merely reallocates) for
  /// any workload.
  void reserve(std::uint32_t nodes, std::uint32_t out_slots_hint);

  /// Returns the graph to the empty state of a default-constructed one,
  /// keeping the capacity of every array: empties the arenas and free
  /// lists, zeroes the birth and edge counters, forgets reserve()'s chunk
  /// hint, detaches the change feed and drops the degree index. A model
  /// built on a cleared graph behaves exactly as on a fresh one (slot,
  /// run and chunk placement restart from the same empty pools), so a
  /// worker can recycle one graph across jobs without touching the
  /// allocator once its arrays have grown.
  void clear();

  /// Creates a node with `out_slots` (initially dangling) out-edge slots.
  /// `birth_time` is the model-level timestamp (round or continuous time).
  NodeId add_node(std::uint32_t out_slots, double birth_time) {
    telemetry::count(telemetry::Counter::kChurnEvents);
    std::uint32_t slot_index;
    if (!free_slots_.empty()) {
      slot_index = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot_index = grow_slot_arrays();
    }
    SlotCore& core = core_[slot_index];
    core.alive = 1;
    core.alive_pos = static_cast<std::uint32_t>(alive_slots_.size());
    // Recycled out runs are all-dangling by the remove_node invariant and
    // fresh pool entries default-construct dangling, so no per-slot reset.
    core.out_base = out_slots > 0 ? acquire_out_run(out_slots) : 0;
    core.out_count = out_slots;
    core.in_base = 0;
    core.in_count = 0;
    core.in_cap = 0;
    birth_seqs_[slot_index] = next_birth_seq_++;
    birth_times_[slot_index] = birth_time;
    alive_slots_.push_back(slot_index);
    const NodeId id{slot_index, core.generation};
    if (feed_ != nullptr) feed_->record_birth(id, out_slots, birth_time);
    if (degree_index_) degree_index_->insert(slot_index, 0);
    return id;
  }

  /// Kills the node: detaches all incident edges, recycles the slot, the
  /// out-slot run and the in-list chunk. Fills `scratch.orphans` with the
  /// out-slots of *other* alive nodes that pointed at `node` (now dangling)
  /// so the caller can regenerate them. The orphan order is deterministic
  /// given the graph state (in-list order, identical to the historical
  /// vector-returning API).
  void remove_node(NodeId node, RemovalScratch& scratch) {
    telemetry::count(telemetry::Counter::kChurnEvents);
    SlotCore& core = core_of(node);
    CHURNET_EXPECTS(core.alive != 0);
    if (degree_index_) degree_index_->erase(node.slot);

    // The victim's edge runs name ~degree random peers, and each detach
    // follows pointers from a peer's record into the pools. The misses go
    // out in dependency waves: each wave reads only lines the wave before
    // it prefetched, so a level's misses overlap instead of serializing.
    // The waves only read and prefetch: the detach loops below make every
    // write, so the orphan order and the feed records do not depend on
    // them.
    // Wave 1: the peers' slot records.
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      const std::uint32_t target_slot = out_pool_[core.out_base + i].peer;
      if (target_slot != NodeId::kInvalidSlot) {
        __builtin_prefetch(&core_[target_slot]);
      }
    }
    for (std::uint32_t i = 0; i < core.in_count; ++i) {
      __builtin_prefetch(&core_[in_pool_[core.in_base + i].peer]);
    }
    // Wave 2: the pool entries the detach loops write. An out-target's
    // in-list entry at in_pos and its last entry (the swap-with-last), and
    // an in-source's out-slot.
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      const OutEdge& edge = out_pool_[core.out_base + i];
      if (edge.peer == NodeId::kInvalidSlot) continue;
      const SlotCore& target = core_[edge.peer];
      __builtin_prefetch(&in_pool_[target.in_base + edge.in_pos], 1);
      __builtin_prefetch(&in_pool_[target.in_base + target.in_count - 1], 1);
    }
    for (std::uint32_t i = 0; i < core.in_count; ++i) {
      const InEdge& in_edge = in_pool_[core.in_base + i];
      __builtin_prefetch(
          &out_pool_[core_[in_edge.peer].out_base + in_edge.out_index], 1);
    }
    // Waves 3 and 4: the source record of each last entry that the swap
    // moves, then that source's out-slot, whose in_pos the move rewrites.
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      if (const InEdge* moved = moved_in_entry(out_pool_[core.out_base + i])) {
        __builtin_prefetch(&core_[moved->peer]);
      }
    }
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      if (const InEdge* moved = moved_in_entry(out_pool_[core.out_base + i])) {
        __builtin_prefetch(
            &out_pool_[core_[moved->peer].out_base + moved->out_index], 1);
      }
    }

    // Detach this node's out-edges from their targets' in-lists, leaving
    // the whole run dangling (the invariant add_node relies on when
    // recycling).
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      OutEdge& edge = out_pool_[core.out_base + i];
      if (edge.peer == NodeId::kInvalidSlot) continue;
      if (feed_ != nullptr) {
        feed_->record_edge_clear(node, i,
                                 NodeId{edge.peer, core_[edge.peer].generation});
      }
      if (degree_index_) degree_index_->decrement(edge.peer);
      detach_in_entry(core_[edge.peer], edge.in_pos);
      edge.peer = NodeId::kInvalidSlot;
      --edge_count_;
    }

    // Clear the out-slots of nodes pointing at us, reporting each orphan in
    // in-list order (the historical, deterministic order). In-list sources
    // are alive by construction, so their NodeIds rebuild from their slots.
    scratch.orphans.clear();
    for (std::uint32_t i = 0; i < core.in_count; ++i) {
      const InEdge in_edge = in_pool_[core.in_base + i];
      const SlotCore& source_core = core_[in_edge.peer];
      OutEdge& out_edge = out_pool_[source_core.out_base + in_edge.out_index];
      CHURNET_ASSERT(out_edge.peer == node.slot);
      out_edge.peer = NodeId::kInvalidSlot;
      --edge_count_;
      const NodeId source{in_edge.peer, source_core.generation};
      if (feed_ != nullptr) {
        feed_->record_edge_clear(source, in_edge.out_index, node);
      }
      if (degree_index_) degree_index_->decrement(in_edge.peer);
      scratch.orphans.push_back(OutSlotRef{source, in_edge.out_index});
    }
    if (core.in_cap > 0) {
      release_in_chunk(core.in_base, core.in_cap);
      core.in_cap = 0;
      core.in_base = 0;
    }
    core.in_count = 0;

    // Remove from the dense alive list (swap with the last entry).
    const std::uint32_t last_slot = alive_slots_.back();
    alive_slots_[core.alive_pos] = last_slot;
    core_[last_slot].alive_pos = core.alive_pos;
    alive_slots_.pop_back();

    core.alive = 0;
    ++core.generation;  // invalidate outstanding NodeIds for this slot
    if (core.out_count > 0) release_out_run(core.out_base, core.out_count);
    core.out_base = 0;
    core.out_count = 0;
    free_slots_.push_back(node.slot);
    if (feed_ != nullptr) feed_->record_death(node);
  }

  /// Convenience wrapper allocating a fresh orphan vector per call. Hot
  /// churn loops should hold a RemovalScratch and use the overload above.
  std::vector<OutSlotRef> remove_node(NodeId node);

  /// Points out-slot `index` of `owner` at `target`. The slot must currently
  /// be dangling. Self-loops are rejected (paper: "d random *other* nodes").
  void set_out_edge(NodeId owner, std::uint32_t index, NodeId target) {
    CHURNET_EXPECTS(owner != target);
    SlotCore& owner_core = core_of(owner);
    CHURNET_EXPECTS(owner_core.alive != 0);
    CHURNET_EXPECTS(index < owner_core.out_count);
    OutEdge& edge = out_pool_[owner_core.out_base + index];
    CHURNET_EXPECTS(edge.peer == NodeId::kInvalidSlot);
    SlotCore& target_core = core_of(target);
    CHURNET_EXPECTS(target_core.alive != 0);
    edge.peer = target.slot;
    edge.in_pos = target_core.in_count;
    if (target_core.in_count == target_core.in_cap) {
      grow_in_chunk(target_core);
    }
    in_pool_[target_core.in_base + target_core.in_count] =
        InEdge{owner.slot, index};
    ++target_core.in_count;
    ++edge_count_;
    if (feed_ != nullptr) feed_->record_edge_set(owner, index, target);
    if (degree_index_) {
      degree_index_->increment(owner.slot);
      degree_index_->increment(target.slot);
    }
  }

  /// Makes out-slot `index` of `owner` dangling, detaching it from its
  /// current target (which must be set).
  void clear_out_edge(NodeId owner, std::uint32_t index) {
    SlotCore& owner_core = core_of(owner);
    CHURNET_EXPECTS(owner_core.alive != 0);
    CHURNET_EXPECTS(index < owner_core.out_count);
    OutEdge& edge = out_pool_[owner_core.out_base + index];
    CHURNET_EXPECTS(edge.peer != NodeId::kInvalidSlot);
    if (feed_ != nullptr) {
      feed_->record_edge_clear(owner, index,
                               NodeId{edge.peer, core_[edge.peer].generation});
    }
    if (degree_index_) {
      degree_index_->decrement(owner.slot);
      degree_index_->decrement(edge.peer);
    }
    detach_in_entry(core_[edge.peer], edge.in_pos);
    edge.peer = NodeId::kInvalidSlot;
    --edge_count_;
  }

  /// Target of an out-slot; invalid id if dangling.
  NodeId out_target(NodeId owner, std::uint32_t index) const {
    const SlotCore& core = core_of(owner);
    CHURNET_EXPECTS(index < core.out_count);
    const std::uint32_t peer = out_pool_[core.out_base + index].peer;
    if (peer == NodeId::kInvalidSlot) return kInvalidNode;
    return NodeId{peer, core_[peer].generation};
  }

  // ---- liveness and sampling ------------------------------------------

  bool is_alive(NodeId node) const {
    if (!node.valid() || node.slot >= core_.size()) return false;
    const SlotCore& core = core_[node.slot];
    return core.alive != 0 && core.generation == node.generation;
  }
  std::uint32_t alive_count() const {
    return static_cast<std::uint32_t>(alive_slots_.size());
  }

  /// Uniformly random alive node. Requires alive_count() > 0.
  NodeId random_alive(Rng& rng) const {
    CHURNET_EXPECTS(!alive_slots_.empty());
    const std::uint32_t slot_index = alive_slots_[static_cast<std::size_t>(
        rng.below(alive_slots_.size()))];
    return NodeId{slot_index, core_[slot_index].generation};
  }

  /// Uniformly random alive node != exclude; invalid id if none exists.
  NodeId random_alive_other(Rng& rng, NodeId exclude) const {
    const std::size_t pick = pick_alive_other(rng, exclude);
    if (pick == kNoPick) return kInvalidNode;
    const std::uint32_t slot_index = alive_slots_[pick];
    return NodeId{slot_index, core_[slot_index].generation};
  }

  /// random_alive_other for a batch, staged: targets[i] is what
  /// random_alive_other(rng, excludes[i]) returns when called for i = 0,
  /// 1, ... in turn, and `rng` ends in the same state. All the draws come
  /// first (they read only the alive count and each excluded node's
  /// record), then the picked alive-list entries, then the targets' slot
  /// records, so each level's cache misses overlap across the batch.
  void random_alive_others(Rng& rng, std::span<const NodeId> excludes,
                           std::span<NodeId> targets) const {
    CHURNET_EXPECTS(targets.size() == excludes.size());
    // A target's slot field holds its alive-list position until resolved.
    for (std::size_t i = 0; i < excludes.size(); ++i) {
      const std::size_t pick = pick_alive_other(rng, excludes[i]);
      if (pick == kNoPick) {
        targets[i] = kInvalidNode;
        continue;
      }
      __builtin_prefetch(&alive_slots_[pick]);
      targets[i].slot = static_cast<std::uint32_t>(pick);
    }
    for (NodeId& target : targets) {
      if (!target.valid()) continue;
      target.slot = alive_slots_[target.slot];
      __builtin_prefetch(&core_[target.slot]);
    }
    for (NodeId& target : targets) {
      if (target.valid()) target.generation = core_[target.slot].generation;
    }
  }

  /// Prefetch hints for wiring loops: pull a node's hot slot record (and,
  /// once that record is cached, its next in-list insert position) toward
  /// the cache so independently drawn targets overlap their misses instead
  /// of serializing them. Pure hints — no-ops on invalid ids, no effect on
  /// behavior.
  void prefetch_node(NodeId node) const {
    if (node.slot < core_.size()) __builtin_prefetch(&core_[node.slot]);
  }
  void prefetch_in_insert(NodeId node) const {
    if (node.slot >= core_.size()) return;
    const SlotCore& core = core_[node.slot];
    if (core.in_count < core.in_cap) {
      __builtin_prefetch(&in_pool_[core.in_base + core.in_count], 1);
    }
  }
  /// Pulls the first entries of a node's out-run and in-list toward the
  /// cache (for samplers that read them a block later; the slot record
  /// should already be cached, see prefetch_node).
  void prefetch_edge_runs(NodeId node) const {
    if (node.slot >= core_.size()) return;
    const SlotCore& core = core_[node.slot];
    if (core.out_count > 0) __builtin_prefetch(&out_pool_[core.out_base]);
    if (core.in_count > 0) __builtin_prefetch(&in_pool_[core.in_base]);
  }

  /// Dense list of currently alive nodes (stable until the next mutation).
  std::vector<NodeId> alive_nodes() const;

  /// Appends the alive nodes to `out` (same deterministic order as
  /// alive_nodes) — for per-step full scans that reuse one buffer instead
  /// of allocating.
  void append_alive_nodes(std::vector<NodeId>& out) const;

  // ---- per-node queries ------------------------------------------------

  /// Monotone global birth sequence number (0 for the first node ever).
  std::uint64_t birth_seq(NodeId node) const {
    return birth_seqs_[checked_slot(node)];
  }
  /// Model timestamp passed to add_node.
  double birth_time(NodeId node) const {
    return birth_times_[checked_slot(node)];
  }

  std::uint32_t out_slot_count(NodeId node) const {
    return core_of(node).out_count;
  }
  /// Number of non-dangling out-edges.
  std::uint32_t out_degree(NodeId node) const {
    return live_out_edges(core_of(node));
  }
  std::uint32_t in_degree(NodeId node) const { return core_of(node).in_count; }
  /// out_degree + in_degree (parallel edges counted with multiplicity).
  std::uint32_t degree(NodeId node) const {
    return out_degree(node) + in_degree(node);
  }

  /// The alive node of maximum (`maximize`) or minimum degree(), the
  /// smallest slot on ties; invalid on an empty graph. The first call
  /// builds a bucket-queue degree index (graph/degree_index.hpp) in
  /// O(slots + edges); every later mutation keeps it current, so later
  /// calls are a cached-bucket lookup. The index is kept for the graph's
  /// lifetime; a graph never asked pays one predicted branch per mutation.
  /// The first call fills that cache, so it must not race other calls on
  /// the same graph.
  NodeId extreme_degree(bool maximize) const {
    if (!degree_index_) build_degree_index();
    const std::uint32_t slot = degree_index_->extreme_slot(maximize);
    if (slot == DegreeIndex::kNoSlot) return kInvalidNode;
    return NodeId{slot, core_[slot].generation};
  }

  /// Appends all current neighbors of `node` (out-targets then in-sources,
  /// with multiplicity) to `out`. Cheap enough for flooding hot loops: both
  /// edge runs are contiguous in their pools, and live peers are alive by
  /// construction so their NodeIds rebuild from the slot records.
  void append_neighbors(NodeId node, std::vector<NodeId>& out) const {
    const SlotCore& core = core_of(node);
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      const std::uint32_t peer = out_pool_[core.out_base + i].peer;
      if (peer != NodeId::kInvalidSlot) {
        out.push_back(NodeId{peer, core_[peer].generation});
      }
    }
    for (std::uint32_t i = 0; i < core.in_count; ++i) {
      const std::uint32_t peer = in_pool_[core.in_base + i].peer;
      out.push_back(NodeId{peer, core_[peer].generation});
    }
  }

  /// Slot-only variant for the flood slot path: appends neighbor *slots*
  /// (out-targets then in-sources, with multiplicity — the exact
  /// append_neighbors order) without touching the peers' generation words.
  /// Live peers are alive by construction, so slot identity is enough for
  /// membership tests keyed by slot; the scan never drags the peers' hot
  /// records through the cache.
  void append_neighbor_slots(std::uint32_t slot,
                             std::vector<std::uint32_t>& out) const {
    const SlotCore& core = core_[slot];
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      const std::uint32_t peer = out_pool_[core.out_base + i].peer;
      if (peer != NodeId::kInvalidSlot) out.push_back(peer);
    }
    for (std::uint32_t i = 0; i < core.in_count; ++i) {
      out.push_back(in_pool_[core.in_base + i].peer);
    }
  }

  /// Entry k of append_neighbor_slots' order without building the list:
  /// the k-th live out-target in out-slot order, else in-source
  /// k - live_out in in-list order. Requires an alive slot and
  /// k < its degree. Gossip samplers resolve each uniform draw with it.
  std::uint32_t neighbor_slot_at(std::uint32_t slot, std::uint32_t k) const {
    const SlotCore& core = core_[slot];
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      const std::uint32_t peer = out_pool_[core.out_base + i].peer;
      if (peer == NodeId::kInvalidSlot) continue;
      if (k == 0) return peer;
      --k;
    }
    CHURNET_EXPECTS(k < core.in_count);
    return in_pool_[core.in_base + k].peer;
  }

  /// Whether the slot currently hosts an alive node (generation-blind
  /// liveness for slot-keyed fast paths).
  bool slot_alive(std::uint32_t slot) const {
    return slot < core_.size() && core_[slot].alive != 0;
  }

  /// Full NodeId of the alive node hosted at `slot`; requires
  /// slot_alive(slot). Pairs with slot_alive for slot-scan consumers (e.g.
  /// the GraphReadView adapter) that need generation-checked handles.
  NodeId alive_id_at(std::uint32_t slot) const {
    CHURNET_EXPECTS(slot_alive(slot));
    return NodeId{slot, core_[slot].generation};
  }

  /// Bulk genesis wiring (src/graph/bulk_wiring.cpp) for a pure-growth
  /// phase in which slot s was born in round s + 1: in slot order, each
  /// of slot s's `out_slots` requests draws rng.below(s), a uniform
  /// earlier slot (slot 0's requests dangle and draw nothing), straight
  /// into its out-slot. The per-node adjacency *contents* and the RNG
  /// stream are identical to issuing random_alive_other + set_out_edge
  /// round by round. Requires a freshly grown graph: every slot alive at
  /// generation 0 in the alive list's position s, with `out_slots`
  /// dangling out-edges and an empty in-list. Radix-buckets edges by
  /// target block so in-list inserts are cache-resident.
  void bulk_wire_genesis(std::uint32_t out_slots, Rng& rng);

  /// Attaches a caller-owned change feed: every subsequent mutation records
  /// a GraphDelta (see graph/change_feed.hpp for the delta contract).
  /// nullptr detaches. The feed must outlive the attachment; recording is a
  /// branch-plus-append per mutation, zero when detached.
  void attach_change_feed(ChangeFeed* feed) { feed_ = feed; }

  /// The currently attached feed, nullptr when detached.
  const ChangeFeed* change_feed() const { return feed_; }

  /// Total number of (directed) edges currently present.
  std::uint64_t edge_count() const { return edge_count_; }

  /// Number of births since construction (== next birth_seq).
  std::uint64_t total_births() const { return next_birth_seq_; }

  /// Exclusive upper bound on slot indices ever allocated; alive nodes have
  /// distinct slots below this bound (used for dense slot-indexed scratch).
  std::uint32_t slot_upper_bound() const {
    return static_cast<std::uint32_t>(core_.size());
  }

  /// Bytes the seven per-slot and per-edge arrays hold (capacity times
  /// element size): slot records, birth sequences and times, the out- and
  /// in-list pools, and the alive and free slot lists. Free lists are
  /// excluded. Once reserve() and warm-up have sized the pools, steady-state
  /// churn leaves it unchanged.
  std::size_t arena_bytes() const;

  /// Verifies the full doubly-indexed adjacency invariant; O(V+E).
  /// Used by tests and debug assertions, returns true when consistent.
  bool check_consistency() const;

 private:
  /// Pooled out-slot entry (8 bytes): slot of the live target, or
  /// kInvalidSlot when dangling, plus the back-pointer into the target's
  /// in-list.
  struct OutEdge {
    std::uint32_t peer = NodeId::kInvalidSlot;
    std::uint32_t in_pos = 0;
  };
  /// Pooled in-list entry (8 bytes): slot of the live source plus the index
  /// of the out-slot in the source's run that carries this edge.
  struct InEdge {
    std::uint32_t peer = NodeId::kInvalidSlot;
    std::uint32_t out_index = 0;
  };
  /// Hot per-slot record: 32 bytes, two per cache line. Cold per-slot data
  /// (birth_seq, birth_time) lives in parallel arrays so churn-loop access
  /// patterns never drag it through the cache.
  struct SlotCore {
    std::uint32_t generation = 0;
    std::uint32_t alive = 0;        // bool; u32 keeps the record at 32 bytes
    std::uint32_t alive_pos = 0;    // index into alive_slots_
    std::uint32_t out_base = 0;     // first out-slot in out_pool_
    std::uint32_t out_count = 0;    // == the node's out-slot count (stride)
    std::uint32_t in_base = 0;      // first in-edge in in_pool_
    std::uint32_t in_count = 0;     // live in-edges
    std::uint32_t in_cap = 0;       // chunk capacity (0 = no chunk held)
  };

  /// Smallest in-list chunk; every chunk capacity is kMinInChunk << class.
  static constexpr std::uint32_t kMinInChunk = 4;
  static constexpr std::uint32_t kInClassCount = 26;  // caps 4 .. 4<<25

  static std::uint32_t in_class_of(std::uint32_t cap) {
    std::uint32_t cls = 0;
    while ((kMinInChunk << cls) < cap) ++cls;
    return cls;
  }

  std::uint32_t checked_slot(NodeId node) const {
    CHURNET_EXPECTS(node.valid() && node.slot < core_.size());
    CHURNET_EXPECTS(core_[node.slot].generation == node.generation);
    return node.slot;
  }
  const SlotCore& core_of(NodeId node) const {
    return core_[checked_slot(node)];
  }
  SlotCore& core_of(NodeId node) { return core_[checked_slot(node)]; }

  std::uint32_t live_out_edges(const SlotCore& core) const {
    std::uint32_t edges = 0;
    for (std::uint32_t i = 0; i < core.out_count; ++i) {
      edges += out_pool_[core.out_base + i].peer != NodeId::kInvalidSlot;
    }
    return edges;
  }

  /// (Re)fills degree_index_ from the arenas: every alive slot at its
  /// current degree.
  void build_degree_index() const;

  /// The draw of random_alive_other and random_alive_others: the
  /// alive-list position of a uniformly random alive node != exclude,
  /// or kNoPick (drawing nothing) if none exists. It reads only the alive
  /// count and the excluded node's record.
  static constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);
  std::size_t pick_alive_other(Rng& rng, NodeId exclude) const {
    const bool exclude_alive = is_alive(exclude);
    const std::size_t candidates =
        alive_slots_.size() - (exclude_alive ? 1 : 0);
    if (candidates == 0) return kNoPick;
    // Draw from the alive list skipping the excluded node's position.
    std::size_t pick = static_cast<std::size_t>(rng.below(candidates));
    if (exclude_alive && pick >= core_[exclude.slot].alive_pos) ++pick;
    return pick;
  }

  /// The in-list entry that detaching `edge` moves into its place: the
  /// target's last entry, or nullptr when the edge dangles or is itself
  /// last. remove_node's prefetch waves read it before any detach.
  const InEdge* moved_in_entry(const OutEdge& edge) const {
    if (edge.peer == NodeId::kInvalidSlot) return nullptr;
    const SlotCore& target = core_[edge.peer];
    const std::uint32_t last = target.in_count - 1;
    if (edge.in_pos == last) return nullptr;
    return &in_pool_[target.in_base + last];
  }

  /// Swap-with-last removal from a node's in-list; fixes the moved entry's
  /// back-pointer in its source's out-slot run.
  void detach_in_entry(SlotCore& target_core, std::uint32_t in_pos) {
    CHURNET_ASSERT(in_pos < target_core.in_count);
    const std::uint32_t last = target_core.in_count - 1;
    if (in_pos != last) {
      InEdge& moved = in_pool_[target_core.in_base + in_pos];
      moved = in_pool_[target_core.in_base + last];
      out_pool_[core_[moved.peer].out_base + moved.out_index].in_pos = in_pos;
    }
    target_core.in_count = last;
  }

  std::uint32_t grow_slot_arrays();                      // cold: new slot
  std::uint32_t acquire_out_run(std::uint32_t stride);
  void release_out_run(std::uint32_t base, std::uint32_t stride);
  void release_in_chunk(std::uint32_t base, std::uint32_t cap) {
    in_free_[in_class_of(cap)].push_back(base);
  }
  /// Base of a free chunk of class `cls`: from its free list, else split
  /// from the smallest larger class with a free chunk, else carved from the
  /// slab's end.
  std::uint32_t acquire_in_chunk(std::uint32_t cls);
  void grow_in_chunk(SlotCore& core);                    // cold: upgrade

  // ---- arenas ----------------------------------------------------------
  // The seven per-slot and per-edge arrays are page-backed
  // (common/page_allocator.hpp): a growth step or the graph's destruction
  // returns their pages to the OS instead of leaving allocator holes.
  PageVector<SlotCore> core_;
  PageVector<std::uint64_t> birth_seqs_;   // cold, parallel to core_
  PageVector<double> birth_times_;         // cold, parallel to core_
  PageVector<OutEdge> out_pool_;           // strided out-slot runs
  PageVector<InEdge> in_pool_;             // capacity-class in-list chunks

  // Free runs, recycled without touching the allocator. Out runs are keyed
  // by stride (one entry per distinct out-slot count ever used — in
  // practice a single entry, the model's d); in chunks by capacity class.
  struct OutFreeList {
    std::uint32_t stride = 0;
    std::vector<std::uint32_t> bases;
  };
  std::vector<OutFreeList> out_free_;
  std::vector<std::uint32_t> in_free_[kInClassCount];
  std::uint32_t first_in_cap_ = kMinInChunk;  // reserve()'s chunk-size hint

  PageVector<std::uint32_t> alive_slots_;
  PageVector<std::uint32_t> free_slots_;
  std::uint64_t next_birth_seq_ = 0;
  std::uint64_t edge_count_ = 0;
  ChangeFeed* feed_ = nullptr;  // optional delta recording (attach_change_feed)
  // Built by the first extreme_degree() call, then kept current by every
  // mutator; mutable because that first call is a const query.
  mutable std::optional<DegreeIndex> degree_index_;
};

}  // namespace churnet
