// The dissemination driver: the one step loop every rumor-spreading run
// goes through, plain flooding included (DESIGN.md, decision 6).
//
// Each step proposes candidates from G_{t-1} and I_{t-1}, runs one
// semantic step of churn (Net::flood_semantics picks the survival rule,
// completion predicate and advance primitive), un-informs the nodes that
// died, and commits the surviving candidates. Gossip protocols reuse the
// identical churn bookkeeping, so PUSH/PULL on a churning network get the
// paper's exact survival semantics for free.
//
// The protocol decides how candidates are represented
// (DisseminationProtocol::candidates()):
//
//   * kSlotSet (plain flooding): the driver scans the boundary itself in
//     raw slots (detail_flood::scan_boundary) and commits receivers
//     word-wise, visiting only the candidate words the step touched. Under
//     pair survival it keeps (sender, receiver) slot pairs instead. The
//     frontier is slot-ordered; ProtocolScratch::informed stays empty and
//     no protocol hook is called.
//   * kFirstPerReceiver / kEvery: the protocol proposes (sender, receiver)
//     pairs through a StepView, which keeps them as slot pairs, and the
//     driver commits them in propose order, calling on_informed /
//     on_death.
//
// Both give the same informed sets, traces and ProtocolStats for flooding
// (tests/test_protocol_equivalence.cpp). On top of the flood loop the
// driver adds multi-source starts (extras drawn from the protocol RNG,
// never the network's) and message-complexity accounting.
//
// flood_dynamic() at the bottom is plain flooding on a typed model:
// FloodProtocol through this driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/assertx.hpp"
#include "graph/change_feed.hpp"
#include "protocols/gossip.hpp"
#include "protocols/protocol.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {

namespace detail_protocol {

/// True when some uninformed alive node has an informed neighbor — i.e.
/// the informed set can still grow on a churn-free network. O(V+E); only
/// consulted on zero-progress rounds to guarantee termination when
/// randomized gossip has saturated its reachable component.
inline bool informed_boundary_exists(const DynamicGraph& graph,
                                     ProtocolScratch& scratch) {
  const FloodScratch& fs = scratch.flood;
  scratch.alive.clear();
  graph.append_alive_nodes(scratch.alive);
  for (const NodeId v : scratch.alive) {
    if (fs.is_informed(v)) continue;
    scratch.flood.neighbors.clear();
    graph.append_neighbors(v, scratch.flood.neighbors);
    for (const NodeId u : scratch.flood.neighbors) {
      if (fs.is_informed(u)) return true;
    }
  }
  return false;
}

/// Slot-path commit of one step's `messages`. Receiver survival:
/// candidates AND NOT deaths, word by word; every message beyond the first
/// to a receiver was a duplicate. Pair survival: per pair, counted as the
/// pair path counts.
template <typename Semantics>
void commit_slots(FloodScratch& fs, std::uint64_t messages,
                  ProtocolStats& stats) {
  fs.frontier_slots.clear();
  if constexpr (Semantics::kPairCandidates) {
    for (const auto& [u, v] : fs.cand_pairs) {
      if (fs.died_this_step_slot(u) || fs.died_this_step_slot(v)) continue;
      if (fs.mark_informed_slot(v)) {
        ++stats.useful_deliveries;
        fs.frontier_slots.push_back(v);
      } else {
        ++stats.duplicate_deliveries;
      }
    }
  } else {
    const std::uint64_t distinct = fs.commit_candidates(fs.frontier_slots);
    stats.useful_deliveries += fs.frontier_slots.size();
    stats.duplicate_deliveries += messages - distinct;
  }
}

/// Pair-path commit: surviving deliveries in propose order. send() took
/// only live receivers, so a receiver is dead now iff its slot's death bit
/// is set (a newborn reusing the slot does not clear it), and survival
/// never loads a slot record; only a newly informed receiver's NodeId is
/// rebuilt from its slot.
template <typename Semantics>
void commit_pairs(const DynamicGraph& graph, ProtocolScratch& scratch,
                  DisseminationProtocol& protocol, ProtocolStats& stats) {
  FloodScratch& fs = scratch.flood;
  fs.frontier.clear();
  for (std::size_t i = 0; i < fs.cand_pairs.size(); ++i) {
    const auto [u, v] = fs.cand_pairs[i];
    if (fs.died_this_step_slot(v)) continue;
    if constexpr (Semantics::kPairCandidates) {
      if (fs.died_this_step_slot(u)) continue;
    }
    if (fs.mark_informed_slot(v)) {
      ++stats.useful_deliveries;
      const NodeId node = graph.alive_id_at(v);
      fs.frontier.push_back(node);
      scratch.informed.push_back(node);
      protocol.on_informed(node, i);
    } else {
      ++stats.duplicate_deliveries;
    }
  }
}

}  // namespace detail_protocol

/// Runs one dissemination process on `net` under its declared flood
/// semantics. The network should be warmed up; it is advanced by one
/// semantic step per dissemination step. All allocations are reused
/// across calls through `scratch`, and the protocol is reset via
/// begin_run, so one (protocol, scratch) pair serves a whole replication
/// loop without steady-state allocation. The driver watches churn through
/// the graph's change feed: it attaches scratch.flood.feed for the duration
/// of the call and detaches it on return. A graph holds one feed, so none
/// may be attached on entry.
template <typename Net>
ProtocolResult disseminate_dynamic(Net& net, DisseminationProtocol& protocol,
                                   const ProtocolOptions& options,
                                   ProtocolScratch& scratch) {
  using Semantics = typename Net::flood_semantics;
  const telemetry::PhaseTimer phase_span(telemetry::Phase::kDissemination);
  ProtocolResult result;
  FloodTrace& trace = result.trace;
  ProtocolStats& stats = result.stats;
  FloodScratch& fs = scratch.flood;
  fs.begin_trial(net.graph().slot_upper_bound());
  scratch.informed.clear();
  protocol.begin_run(options.seed, net.graph().slot_upper_bound());

  const Candidates candidates = protocol.candidates();
  const bool slot_set = candidates == Candidates::kSlotSet;
  if (!slot_set) {
    // The inform-order list holds about one entry per alive node, plus the
    // informed nodes that die during the run (a streaming round loses
    // one): sized once with 1/64 headroom instead of doubling.
    const std::uint64_t alive = net.graph().alive_count();
    scratch.informed.reserve(alive + alive / 64);
  }
  const double delivery_q =
      std::clamp(protocol.delivery_probability(), 0.0, 1.0);
  CHURNET_EXPECTS(!slot_set || delivery_q >= 1.0);
  // Receiver dedup is only sound when one surviving boundary message is as
  // good as many: receiver-only survival and a lossless link.
  const bool dedup = !Semantics::kPairCandidates &&
                     candidates != Candidates::kEvery && delivery_q >= 1.0;

  NodeId source = kInvalidNode;
  CHURNET_EXPECTS(net.graph().change_feed() == nullptr);
  net.attach_change_feed(&fs.feed);
  // Moves the last churn step's mutations into the driver's state: the
  // first newborn, the deaths and the created edges.
  const auto drain_feed = [&] {
    for (const GraphDelta& delta : fs.feed.deltas()) {
      switch (delta.kind) {
        case GraphDelta::Kind::kBirth:
          if (!source.valid()) source = delta.node;
          break;
        case GraphDelta::Kind::kDeath:
          fs.note_death(delta.node);
          break;
        case GraphDelta::Kind::kEdgeSet:
          fs.created.push_back({delta.node, delta.target});
          break;
        case GraphDelta::Kind::kEdgeClear:
          break;
      }
    }
    fs.feed.clear();
  };

  if constexpr (Semantics::kSourceIsNewborn) {
    // The paper's convention: flooding starts from the node joining at t0.
    while (!source.valid()) {
      net.step();
      drain_feed();
    }
  } else {
    CHURNET_EXPECTS(net.graph().alive_count() > 0);
    source = net.graph().random_alive(net.rng());
  }
  // The sources' own birth edges are covered by the frontier.
  fs.created.clear();
  fs.clear_deaths();
  const auto inform_source = [&](NodeId node) {
    if (!fs.mark_informed(node)) return;
    if (slot_set) {
      fs.frontier_slots.push_back(node.slot);
      return;
    }
    fs.frontier.push_back(node);
    scratch.informed.push_back(node);
    protocol.on_informed(node, DisseminationProtocol::kNoCandidate);
  };
  inform_source(source);
  // Extra sources: uniform alive nodes from the protocol RNG (the network
  // realization stays identical to a single-source run under the same
  // network seed). Capped at the alive count; the loop guard guarantees an
  // uninformed alive node exists, so the rejection sampling terminates.
  const std::uint64_t want_sources = std::max<std::uint64_t>(
      std::min<std::uint64_t>(options.sources, net.graph().alive_count()), 1);
  while (fs.informed_count() < want_sources) {
    inform_source(net.graph().random_alive(protocol.rng()));
  }

  trace.peak_informed = fs.informed_count();
  detail_flood::record_step(trace, options.flood, fs.informed_count(),
                            net.graph().alive_count());

  for (std::uint64_t step = 1; step <= options.flood.max_steps; ++step) {
    fs.ensure_slots(net.graph().slot_upper_bound());
    std::uint64_t messages = 0;
    if (slot_set) {
      messages = detail_flood::scan_boundary<Semantics>(net.graph(), fs);
      stats.messages_sent += messages;
    } else {
      fs.begin_step();  // clears last step's candidate marks + pair list
      StepView view(net.graph(), scratch, stats, dedup, delivery_q,
                    &protocol.rng(), step);
      protocol.propose(view);
    }
    fs.created.clear();
    fs.clear_deaths();

    // One semantic step of churn; its feed records deaths and new edges.
    Semantics::advance(net);
    drain_feed();

    for (const NodeId dead : fs.deaths()) {
      fs.unmark_informed(dead);
      if (!slot_set) protocol.on_death(dead);
    }

    // I_t = (I_{t-1} ∪ surviving deliveries) ∩ N_t.
    if (slot_set) {
      detail_protocol::commit_slots<Semantics>(fs, messages, stats);
    } else {
      detail_protocol::commit_pairs<Semantics>(net.graph(), scratch,
                                               protocol, stats);
    }

    trace.steps = step;
    const std::uint64_t informed_count = fs.informed_count();
    const std::uint64_t alive_count = net.graph().alive_count();
    trace.peak_informed = std::max(trace.peak_informed, informed_count);
    detail_flood::record_step(trace, options.flood, informed_count,
                              alive_count);
    trace.final_fraction = alive_count == 0
                               ? 0.0
                               : static_cast<double>(informed_count) /
                                     static_cast<double>(alive_count);

    if (Semantics::completed(informed_count, alive_count)) {
      trace.completed = true;
      trace.completion_step = step;
      break;
    }
    if (informed_count == 0) {
      trace.died_out = true;
      trace.die_out_step = step;
      if (options.flood.stop_on_die_out) break;
    }
    if (options.flood.stop_at_fraction < 1.0 &&
        trace.final_fraction >= options.flood.stop_at_fraction) {
      break;
    }
    if constexpr (Semantics::kChurnFree) {
      // Anything but kEvery (flood, TTL) only ever proposes from new
      // informs or new edges: with neither, the run is a fixed point.
      // Randomized gossip can idle and retry, so on its zero-progress
      // rounds check whether an informed-to-uninformed edge still exists;
      // once the reachable component is saturated (e.g. a disconnected
      // baseline), no coin can ever help and the run is over — without
      // this, a non-completing gossip run would burn the full max_steps.
      if (slot_set ? fs.frontier_slots.empty() : fs.frontier.empty()) {
        if (candidates != Candidates::kEvery) break;
        if (!detail_protocol::informed_boundary_exists(net.graph(),
                                                       scratch)) {
          break;
        }
      }
    }
  }

  net.attach_change_feed(nullptr);
  stats.rounds = trace.steps;
  stats.completed = trace.completed;
  stats.final_coverage = trace.final_fraction;
  telemetry::count(telemetry::Counter::kMessages, stats.total_messages());
  return result;
}

/// Convenience overload with a private (per-call) scratch.
template <typename Net>
ProtocolResult disseminate_dynamic(Net& net, DisseminationProtocol& protocol,
                                   const ProtocolOptions& options = {}) {
  ProtocolScratch scratch;
  return disseminate_dynamic(net, protocol, options, scratch);
}

/// Plain flooding (the paper's process) on a typed model: FloodProtocol
/// through the driver. The terminal informed set is scratch.flood's.
template <typename Net>
FloodTrace flood_dynamic(Net& net, const FloodOptions& options,
                         ProtocolScratch& scratch) {
  FloodProtocol protocol;
  return disseminate_dynamic(net, protocol, ProtocolOptions{options}, scratch)
      .trace;
}

template <typename Net>
FloodTrace flood_dynamic(Net& net, const FloodOptions& options = {}) {
  ProtocolScratch scratch;
  return flood_dynamic(net, options, scratch);
}

}  // namespace churnet
