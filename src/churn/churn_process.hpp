// The pluggable churn layer: one interface every churn regime implements.
//
// A ChurnProcess is an event stream: `next(alive)` samples the next birth or
// death given the current network size, and the consuming network realizes
// it (creates the node and wires its requests, or removes the victim and
// regenerates orphans). The split keeps demography (who is born/dies, when)
// separate from topology (which edges exist) — the paper's two processes
// (streaming Definition 3.2, Poisson Definition 4.1) and every extended
// regime (heavy-tailed lifetimes, bursty on/off phases, growth/decline
// schedules) are implementations of this one interface, and both
// StreamingNetwork and PoissonNetwork drive their churn only through it.
//
// Contract:
//   * `next(alive)` is called with the number of currently alive nodes and
//     returns the next event in non-decreasing time order.
//   * After a birth event is realized, the network calls `on_birth(id, t)`
//     with the newborn's id before sampling the next event — processes that
//     schedule per-node deaths (streaming FIFO, lifetime heaps) depend on
//     this notification.
//   * After a death event is realized the network calls `on_death(id, t)`.
//   * A death event names its victim rule: `kUniform` lets the network pick
//     a uniform random alive node from its own RNG stream (the paper's
//     Poisson models), `kScheduled` pins the exact node chosen by the
//     process (streaming oldest-first, lifetime expiry), and `kAdversarial`
//     defers the choice to the instant the death is realized: the network
//     calls back `select_victim(view)` with a read-only view of the current
//     topology, so adversarial rules (max-degree targeting, eclipse
//     capture, ...) can inspect graph state that does not exist when the
//     event is sampled. See DESIGN.md decision 18 for the contract.
//   * All of a process's randomness comes from its own seed; processes never
//     touch the network's RNG, so churn and wiring streams stay decoupled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assertx.hpp"
#include "graph/node_id.hpp"

namespace churnet {

/// Read-only topology view handed to ChurnProcess::select_victim at the
/// moment a kAdversarial death is realized. An abstract interface (rather
/// than DynamicGraph itself) for two reasons: churn processes stay
/// decoupled from the graph's storage layout, and tests can implement the
/// view over a shadow adjacency to differentially verify victim selection.
///
/// Slots are the graph's dense node indices: every alive node occupies a
/// distinct slot below slot_upper_bound(), so a slot-ascending scan visits
/// the alive set in a deterministic, view-independent order — adversary
/// rules break ties toward the smallest slot, which keeps their choices
/// reproducible by any conforming view implementation.
class GraphReadView {
 public:
  virtual ~GraphReadView() = default;

  /// Number of currently alive nodes.
  virtual std::uint64_t alive_count() const = 0;

  /// Exclusive upper bound on slot indices hosting alive nodes.
  virtual std::uint32_t slot_upper_bound() const = 0;

  /// Full id of the alive node hosted at `slot`, or an invalid id when the
  /// slot is empty / dead.
  virtual NodeId alive_at(std::uint32_t slot) const = 0;

  /// The alive node of maximum (`maximize`) or minimum total degree (out +
  /// in, parallel edges with multiplicity), the smallest slot on ties.
  /// Requires alive_count() > 0.
  virtual NodeId extreme_degree(bool maximize) const = 0;

  /// Appends the alive neighbors of `node` (with multiplicity, any order —
  /// consumers that need a canonical order sort).
  virtual void append_neighbors(NodeId node,
                                std::vector<NodeId>& out) const = 0;
};

class ChurnProcess {
 public:
  /// How a death event selects its victim.
  enum class Victim : std::uint8_t {
    kUniform,      // network draws a uniform random alive node
    kScheduled,    // the process names the exact node (victim_id)
    kAdversarial,  // network calls back select_victim() with a graph view
  };

  /// One churn event: a birth, or the death of a node.
  struct Step {
    double time = 0.0;
    bool is_birth = true;
    Victim victim = Victim::kUniform;
    NodeId victim_id = kInvalidNode;  // valid iff victim == kScheduled
  };

  virtual ~ChurnProcess() = default;

  /// Samples the next event given the current number of alive nodes and
  /// advances the process clock to it.
  virtual Step next(std::uint64_t alive) = 0;

  /// Notification that a birth event was realized as node `id` at `time`.
  virtual void on_birth(NodeId id, double time) {
    (void)id;
    (void)time;
  }

  /// Notification that `id` died at `time` (any victim rule).
  virtual void on_death(NodeId id, double time) {
    (void)id;
    (void)time;
  }

  /// Names the victim of a kAdversarial death event. Called by the network
  /// exactly once per kAdversarial event, after the event is sampled and
  /// before the removal, with a view of the then-current topology; must
  /// return an alive node. Only processes that emit kAdversarial events
  /// implement it (requires view.alive_count() > 0).
  virtual NodeId select_victim(const GraphReadView& view) {
    (void)view;
    CHURNET_ASSERT(false &&
                   "select_victim on a process that never emits "
                   "kAdversarial events");
    return kInvalidNode;
  }

  /// Canonical spec name of the regime ("poisson", "pareto(2.5)", ...).
  virtual std::string name() const = 0;

  /// Expected node lifetime (the paper's n); sets warm-up horizons and
  /// normalizes regimes against each other.
  virtual double mean_lifetime() const = 0;

  /// Warm-up horizon for `multiple` expected lifetimes. The default is
  /// multiple * mean_lifetime(); regimes override it when a different
  /// arithmetic must be preserved exactly (the paper's jump chain) or when
  /// a schedule pins the stationary phase (drift).
  virtual double warm_up_time(double multiple) const {
    return multiple * mean_lifetime();
  }
};

}  // namespace churnet
