// The dissemination-protocol abstraction: what spreads a rumor over a
// dynamic network, generalized from full flooding the same way ChurnProcess
// generalized churn (DESIGN.md, "Protocol layer").
//
// The driver (protocols/dissemination.hpp) owns the step loop — advance
// the network one semantic step, track deaths and fresh edges, commit
// surviving deliveries, test completion. What differs between protocols is
// *which messages are offered each step*: a DisseminationProtocol's
// propose() emits this step's (sender, receiver) transmission attempts
// through a StepView, and the driver does the rest. Plain flooding is the
// exception: it declares Candidates::kSlotSet and the driver runs its
// boundary scan in slot space without calling propose() at all; the same
// FloodProtocol behind a pair-path wrapper is proven equivalent
// (tests/test_protocol_equivalence.cpp).
//
// Message accounting: every send() is one rumor-bearing transmission
// attempt (messages_sent). A lossy link may drop it (lost_messages); a
// delivery that survives churn either informs a new node
// (useful_deliveries) or is wasted on an already-informed one
// (duplicate_deliveries). Protocols that probe without carrying the rumor
// (PULL contacting an uninformed neighbor) count those probes as
// overhead_messages. Where the driver deduplicates receivers (receiver
// survival, a lossless link, a protocol that is not kEvery), duplicate
// boundary messages are accounted directly as duplicate_deliveries at
// propose time — the informed sets are unchanged, only the per-message
// survival check is elided (see dissemination.hpp).
//
// Protocols never touch the network's RNG: all protocol randomness (gossip
// fanout choices, loss coins) comes from a protocol-owned Rng reseeded per
// run, so the network realization under a fixed seed is identical no
// matter which protocol runs on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/assertx.hpp"
#include "common/rng.hpp"
#include "flooding/flood_driver.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_id.hpp"

namespace churnet {

/// Per-run message-complexity accounting. Plain counters bumped by the
/// driver and StepView::send; reset by the driver at begin_run.
struct ProtocolStats {
  /// Rumor-bearing transmission attempts (including ones later lost or
  /// dropped by endpoint churn).
  std::uint64_t messages_sent = 0;
  /// Rumor-free probes (e.g. PULL requests answered by uninformed nodes).
  std::uint64_t overhead_messages = 0;
  /// Transmissions dropped by the lossy-link coin.
  std::uint64_t lost_messages = 0;
  /// Deliveries that informed a previously uninformed node.
  std::uint64_t useful_deliveries = 0;
  /// Deliveries wasted on an already-informed node.
  std::uint64_t duplicate_deliveries = 0;
  /// Steps the run executed (== trace.steps).
  std::uint64_t rounds = 0;
  /// Completion per the model's semantics (== trace.completed).
  bool completed = false;
  /// informed/alive when the run stopped (== trace.final_fraction).
  double final_coverage = 0.0;

  /// Messages that arrived at a live endpoint.
  std::uint64_t deliveries() const {
    return useful_deliveries + duplicate_deliveries;
  }
  /// Every message on the wire: rumor transmissions plus probes.
  std::uint64_t total_messages() const {
    return messages_sent + overhead_messages;
  }
  /// Transmissions voided by endpoint death within the step.
  std::uint64_t dropped_by_churn() const {
    return messages_sent - lost_messages - deliveries();
  }
};

/// Driver-level knobs for one dissemination run; embeds FloodOptions, so
/// ProtocolOptions{flood_options} is a plain flood's configuration.
struct ProtocolOptions {
  FloodOptions flood;
  /// Seed of the protocol-owned RNG (gossip choices, loss coins, extra
  /// sources). The flood protocol draws from it only for extra sources.
  std::uint64_t seed = 0;
  /// Number of initially informed nodes. The first source follows the
  /// model's own convention (newborn / uniform); extras are uniform alive
  /// nodes drawn from the protocol RNG, capped at the alive count.
  std::uint32_t sources = 1;
};

/// Reusable per-run state: the bitset-backed FloodScratch (whose informed
/// set is the run's terminal informed set on every path) plus the pair
/// path's buffers. Zero allocation after the first trial of a replication
/// loop.
struct ProtocolScratch {
  FloodScratch flood;
  /// Every node informed this run, in inform order (never shrunk on death;
  /// consumers filter by liveness). PUSH-style protocols iterate it. Left
  /// empty on the slot path.
  std::vector<NodeId> informed;
  /// Reusable alive-node buffer for PULL-style full scans.
  std::vector<NodeId> alive;

  /// Frees the buffers that scale with the messages and the alive count
  /// (the pair list, both frontiers, the inform-order and alive lists). A
  /// sweep worker calls it after a cell's last replication, so one cell's
  /// buffers are not held through the next cell's jobs (a push(3) job's
  /// pair list is three entries per alive node), while every job of a
  /// cell reuses what the jobs before it grew.
  void release() {
    free_buffer(flood.cand_pairs);
    free_buffer(flood.frontier);
    free_buffer(flood.frontier_slots);
    free_buffer(informed);
    free_buffer(alive);
  }

  /// Bytes the buffers release() frees hold (capacity times element size).
  std::size_t buffer_bytes() const {
    return flood.cand_pairs.capacity() * sizeof(flood.cand_pairs[0]) +
           flood.frontier.capacity() * sizeof(NodeId) +
           flood.frontier_slots.capacity() * sizeof(std::uint32_t) +
           (informed.capacity() + alive.capacity()) * sizeof(NodeId);
  }

 private:
  template <typename T>
  static void free_buffer(std::vector<T>& buffer) {
    std::vector<T>().swap(buffer);
  }
};

/// Outcome of one dissemination run: the flood-compatible trace plus the
/// message accounting.
struct ProtocolResult {
  FloodTrace trace;
  ProtocolStats stats;
};

/// What a protocol sees while proposing one step's messages: the graph as
/// of the previous step, membership queries, the frontier/created-edge
/// incremental state, and the send() sink with loss + dedup applied.
class StepView {
 public:
  StepView(const DynamicGraph& graph, ProtocolScratch& scratch,
           ProtocolStats& stats, bool dedup, double delivery_q,
           Rng* loss_rng, std::uint64_t step)
      : graph_(graph),
        scratch_(scratch),
        stats_(stats),
        dedup_(dedup),
        delivery_q_(delivery_q),
        loss_rng_(loss_rng),
        step_(step) {}

  const DynamicGraph& graph() const { return graph_; }
  /// 1-based index of the step being proposed.
  std::uint64_t step() const { return step_; }
  bool is_informed(NodeId node) const { return scratch_.flood.is_informed(node); }
  std::uint64_t informed_count() const {
    return scratch_.flood.informed_count();
  }

  /// Nodes newly informed at the previous step (the flood frontier).
  const std::vector<NodeId>& frontier() const { return scratch_.flood.frontier; }
  /// Edges created during the previous step's churn interval.
  const std::vector<CreatedEdge>& created() const {
    return scratch_.flood.created;
  }
  /// Every node informed this run in inform order; entries may be dead or
  /// stale (slot reused) — filter with graph().is_alive().
  const std::vector<NodeId>& informed() const { return scratch_.informed; }

  /// Reusable buffers (cleared by the caller before use).
  std::vector<NodeId>& neighbor_buffer() { return scratch_.flood.neighbors; }
  std::vector<NodeId>& alive_buffer() { return scratch_.alive; }

  /// Offers one rumor transmission sender -> receiver; the receiver must be
  /// alive. Applies the lossy coin and (where the driver deduplicates)
  /// receiver deduplication. Returns true iff a delivery candidate was
  /// recorded — exactly then the candidate index protocols see in
  /// on_informed advances by one. Candidates are kept as slot pairs: the
  /// commit decides survival from the step's death bits, so it never loads
  /// a receiver's slot record.
  bool send(NodeId sender, NodeId receiver) {
    CHURNET_EXPECTS(graph_.is_alive(receiver));
    ++stats_.messages_sent;
    if (delivery_q_ < 1.0 && !loss_rng_->bernoulli(delivery_q_)) {
      ++stats_.lost_messages;
      return false;
    }
    if (dedup_) {
      if (!scratch_.flood.mark_candidate(receiver)) {
        // The receiver already has a surviving candidate this step: the
        // extra boundary message is wasted by construction.
        ++stats_.duplicate_deliveries;
        return false;
      }
    }
    scratch_.flood.cand_pairs.emplace_back(sender.slot, receiver.slot);
    return true;
  }

  /// Sizes the step's candidate list for `sends` send() calls, for a
  /// protocol that knows its per-step bound (gossip: fanout x alive): the
  /// list is then allocated once instead of doubling, and keeps its
  /// capacity across steps and runs.
  void reserve_sends(std::uint64_t sends) {
    scratch_.flood.cand_pairs.reserve(sends);
  }

  /// Counts a rumor-free probe (PULL request to an uninformed neighbor).
  void count_overhead(std::uint64_t probes = 1) {
    stats_.overhead_messages += probes;
  }

 private:
  const DynamicGraph& graph_;
  ProtocolScratch& scratch_;
  ProtocolStats& stats_;
  bool dedup_;
  double delivery_q_;
  Rng* loss_rng_;
  std::uint64_t step_;
};

/// How one step's delivery candidates are represented — the protocol's
/// choice, since only it knows what its messages carry.
enum class Candidates {
  /// Receivers as slot bits (slot pairs under pair survival), produced by
  /// the driver's own boundary scan and committed word-wise. Only for
  /// plain flooding: a stateless, lossless protocol whose sends are every
  /// boundary edge. The driver calls none of propose, on_informed or
  /// on_death.
  kSlotSet,
  /// (sender, receiver) pairs in propose order; under receiver survival
  /// and a lossless link only the first per receiver is kept (TTL: its
  /// sender fixes the receiver's hop).
  kFirstPerReceiver,
  /// Every send is its own candidate (gossip: duplicates are the
  /// protocol's waste and are all accounted).
  kEvery,
};

/// A dissemination protocol: proposes each step's transmission attempts
/// and tracks whatever per-node state it needs (hop counts, ...). One
/// instance runs one trial at a time; begin_run reseeds and resets it, so
/// instances are reusable across replications (zero steady-state
/// allocation, like FloodScratch).
class DisseminationProtocol {
 public:
  /// on_informed candidate index for nodes informed without a message
  /// (the sources).
  static constexpr std::size_t kNoCandidate = ~std::size_t{0};

  virtual ~DisseminationProtocol() = default;

  /// Canonical name, matching ProtocolSpec::canonical() of the spec that
  /// built it ("flood", "push(3)", "flood+lossy(0.90)", ...).
  virtual std::string name() const = 0;

  /// Resets per-run state and reseeds the protocol RNG. `slot_bound` is
  /// the graph's slot_upper_bound() for slot-indexed per-node state.
  virtual void begin_run(std::uint64_t seed, std::uint32_t slot_bound) {
    (void)slot_bound;
    rng_ = Rng(seed);
  }

  /// Emits this step's transmission attempts via view.send(). The view
  /// exposes G_{t-1} (the graph before this step's churn) and I_{t-1}.
  virtual void propose(StepView& view) = 0;

  /// Notification that `node` became informed — by candidate
  /// `candidate_index` of this step (an index into the propose-order
  /// candidate list, aligned with send() calls that returned true), or as
  /// a source (kNoCandidate). The sender is not passed: it may have died
  /// during the step, and a protocol that needs it records it at send().
  virtual void on_informed(NodeId node, std::size_t candidate_index) {
    (void)node;
    (void)candidate_index;
  }

  /// Notification that `node` died (per-node protocol state for its slot
  /// must be dropped: the slot can be recycled within the same run).
  virtual void on_death(NodeId node) { (void)node; }

  /// How the driver represents this protocol's candidates (see
  /// Candidates). Anything but kEvery also means propose() only ever emits
  /// from the frontier/created-edge state, so on a churn-free network an
  /// empty frontier is a fixed point and the driver stops early.
  virtual Candidates candidates() const { return Candidates::kEvery; }

  /// Per-message delivery probability; 1.0 = lossless. Overridden by the
  /// lossy-link wrapper.
  virtual double delivery_probability() const { return 1.0; }

  /// The protocol-owned RNG stream (also used by the driver for extra
  /// sources and by StepView for loss coins).
  Rng& rng() { return rng_; }

 protected:
  Rng rng_{0};
};

}  // namespace churnet
