#include "models/streaming_network.hpp"

#include <utility>

#include "models/graph_view.hpp"
#include "models/wiring.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {

StreamingNetwork::StreamingNetwork(StreamingConfig config,
                                   DynamicGraph recycled)
    : config_(config),
      churn_(config.n),
      graph_(std::move(recycled)),
      rng_(config.seed) {
  CHURNET_EXPECTS(config.n >= 1);
  if (config.churn.adversarial()) {
    // The schedule (and its budget-0 byte-identity to plain kStream) is
    // unchanged; only victim selection is redirected. The policy draws
    // from its own derived stream, disjoint from the wiring RNG.
    churn_.set_adversary(config.churn.adversary_config(),
                         adversary_seed(config.seed),
                         config.churn.canonical());
  } else {
    CHURNET_EXPECTS(config.churn.kind == ChurnSpec::Kind::kStream);
  }
  graph_.clear();
  // The population is pinned at n, so warm-up fills every arena once and
  // the steady-state round loop never grows a pool.
  graph_.reserve(config.n, config.d);
}

StreamingNetwork::RoundReport StreamingNetwork::step() {
  // One round = the churn layer's event stream up to and including the
  // round's birth: an optional kScheduled death (the FIFO head, once the
  // network is full), then the birth. All churn decisions come through the
  // ChurnProcess interface; this function only realizes them on the graph.
  RoundReport report;
  ChurnProcess& churn = churn_;
  const WiringLimits limits{config_.max_in_degree, 8};

  ChurnProcess::Step event = churn.next(graph_.alive_count());
  if (!event.is_birth) {
    NodeId victim;
    if (event.victim == ChurnProcess::Victim::kAdversarial) {
      const DynamicGraphView view(graph_);
      victim = churn.select_victim(view);
      CHURNET_ASSERT(graph_.is_alive(victim));
    } else {
      CHURNET_ASSERT(event.victim == ChurnProcess::Victim::kScheduled);
      victim = event.victim_id;
    }
    report.died = victim;
    graph_.remove_node(victim, removal_scratch_);
    if (config_.policy == EdgePolicy::kRegenerate) {
      detail::regenerate_requests(graph_, rng_, removal_scratch_.orphans,
                                  limits);
    }
    churn.on_death(victim, event.time);
    event = churn.next(graph_.alive_count());
  }
  CHURNET_ASSERT(event.is_birth);

  const NodeId born = graph_.add_node(config_.d, event.time);
  detail::issue_initial_requests(graph_, rng_, born, limits);
  churn.on_birth(born, event.time);

  report.round = churn_.round();
  report.born = born;
  return report;
}

void StreamingNetwork::run_rounds(std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) step();
}

void StreamingNetwork::run_until(double time) {
  CHURNET_EXPECTS(time >= now());
  while (now() < time) step();
}

void StreamingNetwork::run_growth_phase() {
  // Depth-guarded: records only when not already inside a make_warmed span.
  const telemetry::PhaseTimer span(telemetry::Phase::kGenesis);
  CHURNET_EXPECTS(churn_.round() == 0 && graph_.alive_count() == 0);
  if (config_.max_in_degree != 0 || graph_.change_feed() != nullptr) {
    // Bounded wiring interleaves draws with in-degree reads, and an
    // attached change feed records per-edge deltas the bulk path cannot
    // emit: both need the exact sequential round loop.
    run_rounds(config_.n);
    return;
  }

  // Phase 1: replay rounds 1..n exactly — churn bookkeeping and births —
  // but leave every request dangling. The round schedule draws no wiring
  // randomness, so moving the draws after the births keeps the wiring RNG
  // stream byte-identical. During pure growth round r's newborn takes slot
  // r-1 (appended last in the alive list, alive_slots_[i] == i).
  const std::uint32_t n = config_.n;
  const std::uint32_t d = config_.d;
  for (std::uint32_t r = 1; r <= n; ++r) {
    const ChurnProcess::Step event = churn_.next(graph_.alive_count());
    CHURNET_ASSERT(event.is_birth);  // pure growth: deaths need a full ring
    const NodeId born = graph_.add_node(d, event.time);
    CHURNET_ASSERT(born.slot == r - 1 && born.generation == 0);
    churn_.on_birth(born, event.time);
  }

  // Phase 2: the draws, in round order, and their cache-blocked install.
  // random_alive_other over the r-1 nodes other than round r's newborn is
  // exactly rng.below(r-1) naming the target slot, never entering the
  // skip-the-owner branch; round 1 has no other node and consumes no draw
  // (the requests dangle).
  graph_.bulk_wire_genesis(d, rng_);
  CHURNET_ENSURES(graph_.alive_count() == config_.n);
}

void StreamingNetwork::warm_up() {
  CHURNET_EXPECTS(churn_.round() == 0);
  run_growth_phase();
  run_rounds(config_.n);
  CHURNET_ENSURES(graph_.alive_count() == config_.n);
}

std::uint64_t StreamingNetwork::age(NodeId node) const {
  CHURNET_EXPECTS(graph_.is_alive(node));
  // The birth round is read back as an integer, not recovered from the
  // double timestamp: the streaming schedule births exactly one node per
  // round and round() counts births, so the node with global birth sequence
  // s was born in round s + 1. This stays exact past 2^53 rounds (where the
  // double birth_time would truncate) and is independent of the time model.
  return churn_.round() - (graph_.birth_seq(node) + 1);
}

}  // namespace churnet
