// Flooding vocabulary shared by the one dissemination driver
// (protocols/dissemination.hpp): run options, the trace, the per-run
// bitset scratch, the per-model step semantics, and the slot-level
// boundary scan plain flooding runs on.
//
// One frontier algorithm serves every model (DESIGN.md, decision 6): a node
// can only become informed through (a) an edge incident to a node informed
// at the previous step, or (b) an edge created since the previous step with
// an informed endpoint. Edges never appear between two long-lived nodes
// except by regeneration, and never disappear except by endpoint death, so
// examining frontier edges plus freshly created edges covers the full
// boundary ∂out(I_t) at every step. This makes an Ω(n)-step completion run
// cost O(E + total churn) instead of O(n·E).
//
// What differs between the paper's flooding processes is captured by a small
// semantics type (`Net::flood_semantics`):
//
//   * StreamingFloodSemantics (paper Def. 3.3): one flooding step is one
//     churn round; a boundary node is informed at step t iff it is still
//     alive at t (the sender's death within the round does not cancel the
//     message); the round's newborn is exempt from the completion test.
//   * DiscretizedFloodSemantics (paper Def. 4.3): one flooding step is one
//     unit of continuous time; a boundary node is informed at T+1 iff BOTH
//     endpoints of the carrying edge survive the whole interval (T, T+1];
//     completion means every alive node is informed.
//   * StaticFloodSemantics: synchronous flooding on a churn-free network
//     (BFS rounds); the source is drawn uniformly since nobody is born.
//
// All per-run state lives in a caller-supplied FloodScratch whose membership
// sets are word-packed bitsets (common/bitset64.hpp, DESIGN.md "Frontier
// representation"): repeated trials reuse the same allocations, clears are
// O(words) streams with no epoch counters to wrap, and the receiver-dedup
// commit is a fused AND-NOT over only the candidate words a step touched.
// The slot scan works in raw slots (no generation loads).
//
// flood_dynamic() — plain flooding on a typed model — is a forwarder to
// disseminate_dynamic() with FloodProtocol, declared next to the driver.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assertx.hpp"
#include "common/bitset64.hpp"
#include "graph/change_feed.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_id.hpp"

namespace churnet {

struct FloodOptions {
  /// Hard cap on flooding steps (rounds in streaming, unit intervals in the
  /// discretized Poisson process).
  std::uint64_t max_steps = 1'000'000;
  /// Stop once informed >= stop_at_fraction * alive (1.0 = only on
  /// completion per the paper's definitions).
  double stop_at_fraction = 1.0;
  /// Stop when the informed set dies out entirely.
  bool stop_on_die_out = true;
  /// Record per-step |I_t| and |N_t| series (cheap; on by default).
  bool record_series = true;
  /// Accepted with no effect: every trial runs on one thread (DESIGN.md,
  /// decision 14). It stays because campaignbench/campaign_bench.cpp,
  /// which mirrors SweepPlan::run_job, still sets it.
  std::uint32_t intra_threads = 1;
};

/// Outcome of one flooding run.
struct FloodTrace {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// |I_t| after flooding step t (index 0 = the source round, value 1).
  std::vector<std::uint64_t> informed_per_step;
  /// |N_t| at the same instants.
  std::vector<std::uint64_t> alive_per_step;

  std::uint64_t steps = 0;
  /// Completion per the paper: every node alive at both ends of a step is
  /// informed (streaming Def. 3.3) / all alive nodes informed (Def. 4.3).
  bool completed = false;
  std::uint64_t completion_step = kNever;
  /// The informed set became empty (every informed node died).
  bool died_out = false;
  std::uint64_t die_out_step = kNever;
  std::uint64_t peak_informed = 0;
  /// informed/alive when the run stopped.
  double final_fraction = 0.0;

  /// First step with informed >= fraction * alive; kNever if never reached.
  /// Requires record_series.
  std::uint64_t step_reaching_fraction(double fraction) const;
};

/// An out-edge created while the driver was watching (a kEdgeSet delta).
struct CreatedEdge {
  NodeId owner;
  NodeId target;
};

/// Reusable per-run state for the generic drivers. Membership sets (the
/// informed set, the per-step candidate set, the per-interval death set)
/// are slot-indexed Bitset64s: one bit per slot, trial reset = O(words)
/// clear, no epoch counters. Membership is keyed by slot alone — exactly
/// the stamp-array semantics this replaced: the drivers unmark on death
/// before a slot can be recycled, so a set bit always describes the slot's
/// current occupant.
///
/// Two candidate representations coexist; the protocol picks one
/// (DisseminationProtocol::candidates()). Protocols that propose record
/// (sender, receiver) slot pairs in `cand_pairs` (propose order is
/// load-bearing: commit order, stats, and on_informed indices follow it),
/// with `mark_candidate` bits deduplicating receivers where one message
/// per receiver suffices. Plain flooding under receiver survival skips the
/// pair list entirely: receivers are candidate *bits* in slot space, each
/// candidate word flagged in a summary level (one bit per word, the
/// degree-index pattern), and commit_candidates() turns them into the next
/// frontier with a fused AND-NOT over only the flagged words.
class FloodScratch {
 public:
  using Word = Bitset64::Word;

  /// Prepares for a new flood over a graph whose slots are < slot_bound.
  void begin_trial(std::uint32_t slot_bound) {
    ensure(slot_bound);
    informed_.clear_all();
    candidate_.clear_all();
    touched_.clear_all();
    death_.clear_all();
    informed_count_ = 0;
    frontier.clear();
    frontier_slots.clear();
    created.clear();
    cand_pairs.clear();
    deaths_.clear();
  }

  /// Pre-grows the membership sets to the graph's slot bound: the slot
  /// path's marks and commits do not grow them.
  void ensure_slots(std::uint32_t slot_bound) { ensure(slot_bound); }

  // ---- informed set ----------------------------------------------------

  bool is_informed(NodeId node) const { return informed_.test(node.slot); }
  bool is_informed_slot(std::uint32_t slot) const {
    return informed_.test(slot);
  }
  /// Marks `node` informed; returns true if it was not already.
  bool mark_informed(NodeId node) {
    ensure(node.slot + 1);
    if (!informed_.test_and_set(node.slot)) return false;
    ++informed_count_;
    return true;
  }
  /// Slot variant for the step commits; the slot must be in range
  /// (ensure_slots ran this step).
  bool mark_informed_slot(std::uint32_t slot) {
    if (!informed_.test_and_set(slot)) return false;
    ++informed_count_;
    return true;
  }
  /// Un-marks `node` if informed (death of an informed node).
  void unmark_informed(NodeId node) {
    if (!informed_.test(node.slot)) return;
    informed_.reset(node.slot);
    CHURNET_ASSERT(informed_count_ > 0);
    --informed_count_;
  }
  std::uint64_t informed_count() const { return informed_count_; }

  // ---- per-step candidates ---------------------------------------------

  /// Starts a new proposal step on the pair path: clears the previous
  /// step's candidate marks (walking the recorded pairs — O(step
  /// candidates), not O(slots)) and the pair list itself.
  void begin_step() {
    for (const auto& [sender, receiver] : cand_pairs) {
      candidate_.reset(receiver);
    }
    cand_pairs.clear();
  }
  /// Pair-path receiver dedup: true the first time `node` is proposed
  /// this step.
  bool mark_candidate(NodeId node) {
    ensure(node.slot + 1);
    return candidate_.test_and_set(node.slot);
  }
  /// Slot path: membership-only candidate mark (in-range slot —
  /// ensure_slots ran this step); the first mark in a word flags it in the
  /// summary.
  void mark_candidate_slot(std::uint32_t slot) {
    CHURNET_ASSERT(slot < candidate_.size());
    Word& word = candidate_.words()[slot / Bitset64::kWordBits];
    if (word == 0) touched_.set(slot / Bitset64::kWordBits);
    word |= Word{1} << (slot % Bitset64::kWordBits);
  }

  /// Slot-path commit: I_t gains (candidates AND NOT deaths), visiting only
  /// the candidate words the summary flags, in ascending order, so newly
  /// informed slots are appended to `frontier_out` in slot order. Both
  /// levels are consumed (left empty). Returns the number of distinct
  /// candidates (informed or not).
  std::uint64_t commit_candidates(std::vector<std::uint32_t>& frontier_out) {
    Word* touched = touched_.words();
    Word* cand = candidate_.words();
    const Word* dead = death_.words();
    Word* informed = informed_.words();
    std::uint64_t distinct = 0;
    for (std::uint64_t s = 0; s < touched_.word_count(); ++s) {
      for (Word flags = std::exchange(touched[s], 0); flags != 0;
           flags &= flags - 1) {
        const std::uint64_t w =
            s * Bitset64::kWordBits + std::countr_zero(flags);
        const Word marked = std::exchange(cand[w], 0);
        distinct += std::popcount(marked);
        const Word add = marked & ~dead[w];
        // Candidates were uninformed at scan time and nothing else informs.
        CHURNET_ASSERT((informed[w] & add) == 0);
        informed[w] |= add;
        informed_count_ += std::popcount(add);
        for (Word bits = add; bits != 0; bits &= bits - 1) {
          frontier_out.push_back(static_cast<std::uint32_t>(
              w * Bitset64::kWordBits + std::countr_zero(bits)));
        }
      }
    }
    return distinct;
  }

  /// True when no candidate bit and no summary bit is set — the state
  /// every slot-path step starts from. O(words).
  bool candidates_empty() const {
    return candidate_.count() == 0 && touched_.count() == 0;
  }

  // ---- deaths during the current churn interval ------------------------

  void clear_deaths() {
    for (const NodeId dead : deaths_) death_.reset(dead.slot);
    deaths_.clear();
  }
  void note_death(NodeId node) {
    ensure(node.slot + 1);
    death_.set(node.slot);
    deaths_.push_back(node);
  }
  bool died_this_step_slot(std::uint32_t slot) const {
    return death_.test(slot);
  }
  const std::vector<NodeId>& deaths() const { return deaths_; }

  // ---- plain reusable buffers ------------------------------------------

  std::vector<NodeId> frontier;
  std::vector<NodeId> neighbors;
  std::vector<CreatedEdge> created;
  // The driver's change feed, attached to the graph for one run and
  // drained into `created` and the death set after every churn step.
  ChangeFeed feed;
  // One step's (sender, receiver) slot pairs: every send() on the pair
  // path, and the boundary messages of the slot path under pair survival.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cand_pairs;

  // Slot-path buffers (slot-only mirrors of the above).
  std::vector<std::uint32_t> frontier_slots;
  std::vector<std::uint32_t> neighbor_slots;

 private:
  void ensure(std::uint32_t slot_bound) {
    if (slot_bound <= informed_.size()) return;
    const std::uint64_t size = std::max<std::uint64_t>(
        slot_bound, informed_.size() + informed_.size() / 2);
    informed_.resize(size);
    candidate_.resize(size);
    death_.resize(size);
    touched_.resize(candidate_.word_count());
  }

  // informed_, candidate_ and death_ are kept the same size by ensure(),
  // so fused word scans never bounds-check; touched_ has one bit per
  // candidate word.
  Bitset64 informed_;
  Bitset64 candidate_;
  Bitset64 touched_;
  Bitset64 death_;
  std::vector<NodeId> deaths_;
  std::uint64_t informed_count_ = 0;
};

/// Synchronous flooding on a streaming network (paper Def. 3.3).
struct StreamingFloodSemantics {
  /// Only the receiver must survive the round.
  static constexpr bool kPairCandidates = false;
  /// The source is the node born at the first advanced round.
  static constexpr bool kSourceIsNewborn = true;
  /// Churn keeps creating edges, so an empty frontier can revive.
  static constexpr bool kChurnFree = false;
  /// The round's newborn is never informed at the check, so exactly one
  /// uninformed alive node means I_t ⊇ N_{t-1} ∩ N_t.
  static bool completed(std::uint64_t informed, std::uint64_t alive) {
    return informed + 1 >= alive && alive >= 2;
  }
  template <typename Net>
  static void advance(Net& net) {
    net.step();
  }
};

/// Discretized flooding on a continuous-time network (paper Def. 4.3).
struct DiscretizedFloodSemantics {
  /// Both endpoints of the carrying edge must survive the interval.
  static constexpr bool kPairCandidates = true;
  static constexpr bool kSourceIsNewborn = true;
  static constexpr bool kChurnFree = false;
  static bool completed(std::uint64_t informed, std::uint64_t alive) {
    return informed == alive && alive > 0;
  }
  template <typename Net>
  static void advance(Net& net) {
    net.run_until(net.now() + 1.0);
  }
};

/// Synchronous flooding on a churn-free network: BFS rounds.
struct StaticFloodSemantics {
  static constexpr bool kPairCandidates = false;
  /// Nobody is born, so the source is a uniform random alive node.
  static constexpr bool kSourceIsNewborn = false;
  /// No churn: an exhausted frontier is a fixed point (BFS termination).
  static constexpr bool kChurnFree = true;
  static bool completed(std::uint64_t informed, std::uint64_t alive) {
    return informed == alive && alive > 0;
  }
  template <typename Net>
  static void advance(Net& net) {
    net.step();
  }
};

namespace detail_flood {

inline void record_step(FloodTrace& trace, const FloodOptions& options,
                        std::uint64_t informed, std::uint64_t alive) {
  if (!options.record_series) return;
  trace.informed_per_step.push_back(informed);
  trace.alive_per_step.push_back(alive);
}

/// The slot path's propose step: scans the boundary of I_{t-1} — every
/// uninformed neighbor of a frontier node, then every edge created in the
/// previous interval with exactly one informed endpoint — and returns the
/// number of boundary messages (sender, receiver pairs). Receivers become
/// candidate bits under receiver-survival semantics, (sender, receiver)
/// slot pairs in `cand_pairs` under pair survival. Reads the graph and the
/// informed set only.
template <typename Semantics>
std::uint64_t scan_boundary(const DynamicGraph& graph, FloodScratch& scratch) {
  constexpr bool kPairs = Semantics::kPairCandidates;
  if constexpr (kPairs) scratch.cand_pairs.clear();
  const auto offer = [&scratch](std::uint32_t sender, std::uint32_t receiver) {
    if constexpr (kPairs) {
      scratch.cand_pairs.emplace_back(sender, receiver);
    } else {
      scratch.mark_candidate_slot(receiver);
    }
  };

  std::uint64_t messages = 0;
  std::vector<std::uint32_t>& neighbors = scratch.neighbor_slots;
  for (const std::uint32_t u : scratch.frontier_slots) {
    // Frontier members were alive and informed at last step's commit and
    // nothing has advanced since; the bit doubles as a liveness check.
    if (!scratch.is_informed_slot(u)) continue;
    neighbors.clear();
    graph.append_neighbor_slots(u, neighbors);
    for (const std::uint32_t v : neighbors) {
      if (scratch.is_informed_slot(v)) continue;
      offer(u, v);
      ++messages;
    }
  }
  for (const CreatedEdge& edge : scratch.created) {
    // An edge created in the previous interval counts from now on,
    // provided it still exists (both endpoints alive).
    if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) {
      continue;
    }
    const bool owner_informed = scratch.is_informed_slot(edge.owner.slot);
    const bool target_informed = scratch.is_informed_slot(edge.target.slot);
    if (owner_informed == target_informed) continue;
    if (owner_informed) {
      offer(edge.owner.slot, edge.target.slot);
    } else {
      offer(edge.target.slot, edge.owner.slot);
    }
    ++messages;
  }
  return messages;
}

}  // namespace detail_flood

}  // namespace churnet
