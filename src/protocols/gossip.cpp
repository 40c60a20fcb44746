#include "protocols/gossip.hpp"

#include <algorithm>

#include "common/epoch.hpp"
#include "common/specgram.hpp"
#include "common/table.hpp"

namespace churnet {
namespace {

/// The pair-path flood boundary scan shared by FloodProtocol and
/// TtlFloodProtocol: frontier nodes (filtered by `forwards`) offer to every
/// uninformed neighbor, then edges created during the previous interval
/// with exactly one informed (and forwarding) endpoint offer across. This
/// is the NodeId mirror of the driver's slot scan
/// (detail_flood::scan_boundary) — the equivalence tests pin the two
/// bit-for-bit. `send(u, v)` performs the actual emission, so TTL can
/// attach hop payloads to recorded candidates.
template <typename Forwards, typename Send>
void propose_boundary(StepView& view, const Forwards& forwards,
                      const Send& send) {
  const DynamicGraph& graph = view.graph();
  std::vector<NodeId>& neighbors = view.neighbor_buffer();
  for (const NodeId u : view.frontier()) {
    if (!graph.is_alive(u)) continue;  // died in a previous interval
    if (!forwards(u)) continue;
    neighbors.clear();
    graph.append_neighbors(u, neighbors);
    for (const NodeId v : neighbors) {
      if (!view.is_informed(v)) send(u, v);
    }
  }
  for (const CreatedEdge& edge : view.created()) {
    // An edge created in the previous interval counts from now on,
    // provided it still exists (both endpoints alive).
    if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) {
      continue;
    }
    const bool owner_informed = view.is_informed(edge.owner);
    const bool target_informed = view.is_informed(edge.target);
    if (owner_informed && !target_informed && forwards(edge.owner)) {
      send(edge.owner, edge.target);
    } else if (target_informed && !owner_informed && forwards(edge.target)) {
      send(edge.target, edge.owner);
    }
  }
}

/// Callers per block of the gossip sampler below.
constexpr std::size_t kGossipBlock = 64;

/// The contact sampler of PUSH, PULL and PUSH-PULL. For every caller in
/// `callers`, in order, that `calls` accepts and that has a neighbor, draws
/// `fanout` contacts uniformly with replacement: one rng.below(degree) per
/// contact, resolved by DynamicGraph::neighbor_slot_at, so contact k is
/// entry k of append_neighbors' order. `contact(caller, node)` receives
/// every draw in draw order.
///
/// Callers go in blocks so that their cache misses overlap: slot records
/// are prefetched two blocks ahead and edge runs one block ahead (a run's
/// address is in its record), and a whole block is drawn, prefetching each
/// contact's record, before its first contact is handed over. `contact`
/// may only send and count: a send reads no draw of this stream (loss
/// coins come from the lossy wrapper's own stream) and changes neither
/// liveness nor the informed set, so draws, sends and candidate indices
/// come in the order of drawing and sending one caller at a time.
///
/// The step's pair list is sized once for its bound, fanout x alive.
template <typename Calls, typename Contact>
void sample_contacts(
    StepView& view, const std::vector<NodeId>& callers, std::uint32_t fanout,
    Rng& rng, std::vector<std::pair<std::uint32_t, std::uint32_t>>& picks,
    const Calls& calls, const Contact& contact) {
  const DynamicGraph& graph = view.graph();
  view.reserve_sends(std::uint64_t{fanout} * graph.alive_count());
  const std::size_t count = callers.size();
  for (std::size_t i = 0; i < std::min(count, 2 * kGossipBlock); ++i) {
    graph.prefetch_node(callers[i]);
  }
  for (std::size_t begin = 0; begin < count; begin += kGossipBlock) {
    const std::size_t end = std::min(count, begin + kGossipBlock);
    const std::size_t next_end = std::min(count, end + kGossipBlock);
    for (std::size_t i = next_end; i < std::min(count, next_end + kGossipBlock);
         ++i) {
      graph.prefetch_node(callers[i]);
    }
    for (std::size_t i = end; i < next_end; ++i) {
      graph.prefetch_edge_runs(callers[i]);
    }
    picks.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId caller = callers[i];
      if (!calls(caller)) continue;
      const std::uint32_t degree = graph.degree(caller);
      if (degree == 0) continue;
      for (std::uint32_t k = 0; k < fanout; ++k) {
        const std::uint32_t slot = graph.neighbor_slot_at(
            caller.slot, static_cast<std::uint32_t>(rng.below(degree)));
        graph.prefetch_node(NodeId{slot, 0});  // a hint reads the slot only
        picks.emplace_back(static_cast<std::uint32_t>(i - begin), slot);
      }
    }
    for (const auto& [position, slot] : picks) {
      contact(callers[begin + position], graph.alive_id_at(slot));
    }
  }
}

}  // namespace

// ---- FloodProtocol ---------------------------------------------------------

void FloodProtocol::propose(StepView& view) {
  propose_boundary(
      view, [](NodeId) { return true; },
      [&view](NodeId u, NodeId v) { view.send(u, v); });
}

// ---- TtlFloodProtocol ------------------------------------------------------

std::string TtlFloodProtocol::name() const {
  return "ttl(" + fmt_int(static_cast<std::int64_t>(ttl_)) + ")";
}

void TtlFloodProtocol::begin_run(std::uint64_t seed,
                                 std::uint32_t slot_bound) {
  DisseminationProtocol::begin_run(seed, slot_bound);
  bump_epoch(epoch_);  // aborts on wrap: stale stamps would alias as informed
  if (slot_bound > stamp_.size()) {
    stamp_.resize(slot_bound, 0);
    hop_.resize(slot_bound, 0);
  }
  pending_hops_.clear();
}

void TtlFloodProtocol::propose(StepView& view) {
  pending_hops_.clear();
  propose_boundary(
      view, [this](NodeId u) { return forwards(u); },
      [this, &view](NodeId u, NodeId v) {
        // Record the receiver's hop only for candidates the view actually
        // kept, so pending_hops_ stays aligned with candidate indices.
        if (view.send(u, v)) pending_hops_.push_back(hop_[u.slot] + 1);
      });
}

void TtlFloodProtocol::on_informed(NodeId node, std::size_t candidate_index) {
  if (node.slot >= stamp_.size()) {
    const std::size_t size = std::max<std::size_t>(
        node.slot + 1, stamp_.size() + stamp_.size() / 2);
    stamp_.resize(size, 0);
    hop_.resize(size, 0);
  }
  stamp_[node.slot] = epoch_;
  if (candidate_index == kNoCandidate) {
    hop_[node.slot] = 0;  // source
    return;
  }
  CHURNET_ASSERT(candidate_index < pending_hops_.size());
  hop_[node.slot] = pending_hops_[candidate_index];
}

void TtlFloodProtocol::on_death(NodeId node) {
  if (node.slot < stamp_.size()) stamp_[node.slot] = 0;
}

std::uint32_t TtlFloodProtocol::hop_of(NodeId node) const {
  return node.slot < stamp_.size() && stamp_[node.slot] == epoch_
             ? hop_[node.slot]
             : 0;
}

// ---- Gossip ----------------------------------------------------------------

std::string PushProtocol::name() const {
  return "push(" + fmt_int(static_cast<std::int64_t>(fanout_)) + ")";
}

void PushProtocol::propose(StepView& view) {
  // The inform-order list keeps dead and stale-slot entries; liveness
  // filters them (a recycled slot's new occupant has its own entry).
  sample_contacts(
      view, view.informed(), fanout_, rng_, picks_,
      [&view](NodeId u) { return view.graph().is_alive(u); },
      [&view](NodeId u, NodeId v) {
        view.send(u, v);  // oblivious: duplicates are the protocol's waste
      });
}

std::string PullProtocol::name() const {
  return "pull(" + fmt_int(static_cast<std::int64_t>(fanout_)) + ")";
}

void PullProtocol::propose(StepView& view) {
  std::vector<NodeId>& alive = view.alive_buffer();
  alive.clear();
  view.graph().append_alive_nodes(alive);
  sample_contacts(
      view, alive, fanout_, rng_, picks_,
      [&view](NodeId v) { return !view.is_informed(v); },
      [&view](NodeId v, NodeId u) {
        if (view.is_informed(u)) {
          view.send(u, v);  // the informed neighbor answers the pull
        } else {
          view.count_overhead();  // probe answered empty
        }
      });
}

std::string PushPullProtocol::name() const {
  return "push-pull(" + fmt_int(static_cast<std::int64_t>(fanout_)) + ")";
}

void PushPullProtocol::propose(StepView& view) {
  std::vector<NodeId>& alive = view.alive_buffer();
  alive.clear();
  view.graph().append_alive_nodes(alive);
  sample_contacts(
      view, alive, fanout_, rng_, picks_, [](NodeId) { return true; },
      [&view](NodeId v, NodeId u) {
        if (view.is_informed(v)) {
          view.send(v, u);  // push
        } else if (view.is_informed(u)) {
          view.send(u, v);  // pull answered
        } else {
          view.count_overhead();  // neither side has the rumor
        }
      });
}

// ---- LossyProtocol ---------------------------------------------------------

LossyProtocol::LossyProtocol(std::unique_ptr<DisseminationProtocol> inner,
                             double q)
    : inner_(std::move(inner)), q_(q) {
  CHURNET_EXPECTS(inner_ != nullptr);
  CHURNET_EXPECTS(q_ >= 0.0 && q_ <= 1.0);
}

std::string LossyProtocol::name() const {
  return inner_->name() + "+lossy(" + fmt_spec_arg(q_) + ")";
}

void LossyProtocol::begin_run(std::uint64_t seed, std::uint32_t slot_bound) {
  // Two decorrelated streams from one run seed: the wrapper's loss coins
  // and the inner protocol's own choices.
  DisseminationProtocol::begin_run(derive_seed(seed, 0, 0), slot_bound);
  inner_->begin_run(derive_seed(seed, 1, 0), slot_bound);
}

}  // namespace churnet
