// Concrete dissemination protocols (protocols/protocol.hpp):
//
//   FloodProtocol      full flooding — the paper's process; the driver
//                      runs it on slot-set candidates (its propose() is
//                      the pair path, used when a wrapper needs sends)
//   TtlFloodProtocol   hop-bounded flooding: a node informed at hop h
//                      forwards only while h < ttl (ttl -> inf == flood)
//   PushProtocol       PUSH gossip: every informed node sends to `fanout`
//                      uniform random neighbors (with replacement) per step
//   PullProtocol       PULL gossip: every uninformed node probes `fanout`
//                      uniform random neighbors; informed ones answer with
//                      the rumor, uninformed probes count as overhead
//   PushPullProtocol   classic PUSH-PULL: every node contacts `fanout`
//                      random neighbors — informed callers push, informed
//                      callees answer pulls
//   LossyProtocol      wrapper composing a per-message delivery
//                      probability q with any inner protocol
//
// All protocol randomness comes from the protocol-owned RNG; flooding and
// TTL flooding draw none of their own. Gossip sampling iterates
// deterministically ordered node lists (the run's inform order for PUSH,
// the graph's alive order for PULL/PUSH-PULL), keeping every run
// reproducible from (network seed, protocol seed). A gossip contact is
// drawn by index (one rng.below(degree) per contact, contact k being entry
// k of DynamicGraph::append_neighbors' order), never from a built
// neighbor list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "protocols/protocol.hpp"

namespace churnet {

/// Full flooding: every informed node offers the rumor over every incident
/// edge, incrementally via the frontier + created-edge state. The driver
/// scans that boundary itself (kSlotSet); propose() emits the same
/// messages as pairs for wrappers that need one send per message.
class FloodProtocol : public DisseminationProtocol {
 public:
  std::string name() const override { return "flood"; }
  void propose(StepView& view) override;
  Candidates candidates() const override { return Candidates::kSlotSet; }
};

/// Hop-bounded flooding: the source is at hop 0, a delivery from a hop-h
/// sender lands at hop h+1, and nodes at hop >= ttl stop forwarding.
/// ttl == 0 never spreads beyond the sources.
class TtlFloodProtocol : public DisseminationProtocol {
 public:
  explicit TtlFloodProtocol(std::uint32_t ttl) : ttl_(ttl) {}

  std::string name() const override;
  void begin_run(std::uint64_t seed, std::uint32_t slot_bound) override;
  void propose(StepView& view) override;
  void on_informed(NodeId node, std::size_t candidate_index) override;
  void on_death(NodeId node) override;
  /// Hops follow the first sender in propose order.
  Candidates candidates() const override {
    return Candidates::kFirstPerReceiver;
  }

  std::uint32_t ttl() const { return ttl_; }
  /// Hop at which `node` was informed this run; only valid while informed.
  std::uint32_t hop_of(NodeId node) const;

 private:
  bool forwards(NodeId node) const {
    return node.slot < stamp_.size() && stamp_[node.slot] == epoch_ &&
           hop_[node.slot] < ttl_;
  }

  std::uint32_t ttl_;
  // Epoch-stamped slot-indexed hop map (the FloodScratch pattern): resets
  // are an epoch bump, replication loops allocate nothing after warm-up.
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint32_t> hop_;
  std::uint64_t epoch_ = 0;
  // Hop payload per recorded candidate of the current step, aligned with
  // the driver's candidate indices.
  std::vector<std::uint32_t> pending_hops_;
};

/// The three gossip protocols' shared state: the fanout and the pick
/// buffer of their block sampler (gossip.cpp), kept across blocks, steps
/// and runs so that it stops allocating once it has grown.
class GossipProtocol : public DisseminationProtocol {
 public:
  std::uint32_t fanout() const { return fanout_; }

 protected:
  explicit GossipProtocol(std::uint32_t fanout) : fanout_(fanout) {}

  std::uint32_t fanout_;
  /// One block's draws: (caller's position in the block, contact's slot).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> picks_;
};

/// PUSH gossip with fanout k: each step, every informed node samples k
/// neighbors uniformly with replacement and sends to each (oblivious to
/// the receiver's state — duplicates are the protocol's waste).
class PushProtocol : public GossipProtocol {
 public:
  explicit PushProtocol(std::uint32_t fanout) : GossipProtocol(fanout) {}

  std::string name() const override;
  void propose(StepView& view) override;
};

/// PULL gossip with fanout k: each step, every uninformed alive node
/// probes k uniform random neighbors; an informed neighbor answers with
/// the rumor, an uninformed one costs an overhead probe.
class PullProtocol : public GossipProtocol {
 public:
  explicit PullProtocol(std::uint32_t fanout) : GossipProtocol(fanout) {}

  std::string name() const override;
  void propose(StepView& view) override;
};

/// PUSH-PULL with fanout k: every alive node contacts k uniform random
/// neighbors; informed callers push the rumor, informed callees answer the
/// pull, and uninformed-uninformed contacts cost overhead probes.
class PushPullProtocol : public GossipProtocol {
 public:
  explicit PushPullProtocol(std::uint32_t fanout) : GossipProtocol(fanout) {}

  std::string name() const override;
  void propose(StepView& view) override;
};

/// Lossy-link wrapper: every transmission of the inner protocol is
/// delivered independently with probability q (the loss coin comes from
/// this wrapper's RNG; the inner protocol keeps its own stream). Composes
/// with any protocol; q == 1 is bit-identical to the bare inner protocol.
class LossyProtocol : public DisseminationProtocol {
 public:
  LossyProtocol(std::unique_ptr<DisseminationProtocol> inner, double q);

  std::string name() const override;
  void begin_run(std::uint64_t seed, std::uint32_t slot_bound) override;
  void propose(StepView& view) override { inner_->propose(view); }
  void on_informed(NodeId node, std::size_t candidate_index) override {
    inner_->on_informed(node, candidate_index);
  }
  void on_death(NodeId node) override { inner_->on_death(node); }
  /// Every send needs its own loss coin, so a slot set becomes pairs.
  Candidates candidates() const override {
    const Candidates inner = inner_->candidates();
    return inner == Candidates::kSlotSet ? Candidates::kFirstPerReceiver
                                         : inner;
  }
  double delivery_probability() const override { return q_; }

  const DisseminationProtocol& inner() const { return *inner_; }

 private:
  std::unique_ptr<DisseminationProtocol> inner_;
  double q_;
};

}  // namespace churnet
