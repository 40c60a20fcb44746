// Streaming node churn (paper Definition 3.2).
//
// Discrete rounds; at each round exactly one node is born and lives exactly
// n rounds, so from round n+1 on, every round kills the unique node of age
// n-1 and the network size is pinned at n. Deaths are processed before the
// round's birth (the newborn "stays up to round t+n-1").
//
// The age order lives in a fixed-capacity ring buffer (capacity n, the hard
// upper bound on the alive count): push/pop are index arithmetic on one
// allocation made at construction, so the per-round hot path of the
// streaming simulators never touches the allocator.
//
// StreamingChurn is also a ChurnProcess (churn/churn_process.hpp): a round
// becomes one kScheduled death event (the FIFO head, only when the network
// is full) followed by one birth event, both stamped with the round number.
// The original round-structured API (begin_round/record_birth) remains for
// direct consumers and is what the event adapter drives internally.
//
// With set_adversary() installed, each full-network round's death is
// redirected to the adversary with probability `budget`: the event carries
// Victim::kAdversarial, the driver calls select_victim() against the live
// graph, and on_death() removes the chosen node from the age ring. Those
// victims are arbitrary ring members, not the FIFO head, so with an
// adversary the ring doubles to 2n and keeps a slot -> position map: a
// removal tombstones the victim's entry in O(1), FIFO pops skip
// tombstones, and the ring compacts when its span fills the 2n buffer
// (at most once per n removals). The round count, pinned size, and birth
// schedule are unchanged, and with no
// adversary installed (or budget 0, which draws nothing) the event stream
// is byte-identical to the plain schedule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "churn/adversary.hpp"
#include "churn/churn_process.hpp"
#include "graph/node_id.hpp"

namespace churnet {

class StreamingChurn final : public ChurnProcess {
 public:
  /// `n` is both the steady-state size and the exact node lifetime.
  explicit StreamingChurn(std::uint32_t n);

  // ---- round-structured API --------------------------------------------

  /// Starts round `round()+1`. Returns the node that dies this round (the
  /// oldest alive node) or nullopt during the initial fill (rounds 1..n).
  std::optional<NodeId> begin_round();

  /// Records this round's newborn; must be called exactly once per round,
  /// after begin_round().
  void record_birth(NodeId id);

  // ---- ChurnProcess ----------------------------------------------------

  /// Event view of the same schedule: the death event (if the network is
  /// full) then the birth event of round `round()+1`. `alive` is ignored —
  /// the schedule tracks its own population. The birth event must be
  /// acknowledged through on_birth() before the next round begins.
  Step next(std::uint64_t alive) override;

  /// Realizes the pending birth event (same contract as record_birth).
  void on_birth(NodeId id, double time) override;

  /// Realizes an adversarial death (removes `id` from the age ring) and
  /// notifies the adversary; a no-op ring-wise for kScheduled deaths,
  /// whose victim was already popped by begin_round().
  void on_death(NodeId id, double time) override;

  /// Delegates to the installed adversary; only called by drivers after a
  /// kAdversarial death event.
  NodeId select_victim(const GraphReadView& view) override;

  /// Installs adversarial victim selection (before round 1). `name` is the
  /// canonical spec the process reports ("maxdeg(0.50)", ...).
  void set_adversary(AdversaryConfig config, std::uint64_t seed,
                     std::string name);

  std::string name() const override { return name_; }

  /// Every lifetime is exactly n rounds.
  double mean_lifetime() const override { return static_cast<double>(n_); }

  // ---- observers -------------------------------------------------------

  /// Rounds completed (== births recorded).
  std::uint64_t round() const { return round_; }

  /// Steady-state size / lifetime parameter n.
  std::uint32_t n() const { return n_; }

  /// Number of currently alive nodes tracked by the schedule.
  std::uint32_t alive() const { return size_; }

  /// The installed adversary, nullptr for the plain schedule.
  const AdversaryPolicy* adversary() const {
    return adversary_.has_value() ? &*adversary_ : nullptr;
  }

 private:
  NodeId pop_oldest();
  void push_newest(NodeId id);
  void remove_from_ring(NodeId id);
  void compact_ring();
  std::uint32_t ring_next(std::uint32_t pos) const;

  std::uint32_t n_;
  std::uint64_t round_ = 0;
  bool birth_pending_ = false;
  bool adversarial_pending_ = false;  // death emitted, victim not yet realized
  // Fixed-capacity ring buffer of alive nodes in age order; head_ indexes
  // the oldest entry and span_ entries follow it. Capacity is n for the
  // plain schedule (begin_round() pops before record_birth() pushes, so
  // size_ never exceeds n and span_ == size_), 2n with an adversary, whose
  // removals leave tombstones (invalid ids) inside the span.
  std::vector<NodeId> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t span_ = 0;  // entries from head_, tombstones included
  std::uint32_t size_ = 0;  // live entries
  std::vector<std::uint32_t> ring_pos_;  // slot -> ring position (adversary)
  std::optional<AdversaryPolicy> adversary_;
  std::string name_ = "stream";
};

}  // namespace churnet
