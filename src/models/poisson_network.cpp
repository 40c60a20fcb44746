#include "models/poisson_network.hpp"

#include <utility>

#include "models/graph_view.hpp"
#include "models/wiring.hpp"

namespace churnet {

PoissonConfig PoissonConfig::with_n(std::uint32_t n, std::uint32_t d,
                                    EdgePolicy policy, std::uint64_t seed) {
  CHURNET_EXPECTS(n >= 1);
  PoissonConfig config;
  config.lambda = 1.0;
  config.mu = 1.0 / static_cast<double>(n);
  config.d = d;
  config.policy = policy;
  config.seed = seed;
  return config;
}

PoissonNetwork::PoissonNetwork(PoissonConfig config, DynamicGraph recycled)
    : config_(config),
      churn_(make_churn_process(config.churn, config.lambda, config.mu,
                                config.seed)),
      graph_(std::move(recycled)),
      rng_(config.seed + 0x51ED270B9F9B42A5ULL) {
  CHURNET_EXPECTS(config.lambda > 0.0);
  CHURNET_EXPECTS(config.mu > 0.0);
  // A streaming spec names the size-coupled round schedule, which only
  // StreamingNetwork can drive.
  CHURNET_EXPECTS(churn_ != nullptr &&
                  "continuous churn spec required (not 'stream')");
  graph_.clear();
  graph_.reserve(stationary_reserve_hint(config.lambda, config.mu), config.d);
}

void PoissonNetwork::sample_pending() {
  pending_ = churn_->next(graph_.alive_count());
  pending_valid_ = true;
  ++events_;
}

PoissonNetwork::EventReport PoissonNetwork::step() {
  if (!pending_valid_) sample_pending();
  pending_valid_ = false;
  return apply(pending_);
}

PoissonNetwork::EventReport PoissonNetwork::apply(
    const ChurnProcess::Step& event) {
  now_ = event.time;
  EventReport report;
  report.kind =
      event.is_birth ? ChurnEvent::Kind::kBirth : ChurnEvent::Kind::kDeath;
  report.time = event.time;

  const WiringLimits limits{config_.max_in_degree, 8};
  if (event.is_birth) {
    const NodeId born = graph_.add_node(config_.d, event.time);
    detail::issue_initial_requests(graph_, rng_, born, limits);
    churn_->on_birth(born, event.time);
    report.node = born;
    return report;
  }

  // Death: memoryless regimes emit kUniform (every alive node is equally
  // likely, rate N*mu, zero on an empty network); lifetime regimes schedule
  // the exact victim at its birth; adversarial regimes pick theirs against
  // a read view of the live graph (DESIGN.md decision 18).
  CHURNET_ASSERT(graph_.alive_count() > 0);
  NodeId victim;
  if (event.victim == ChurnProcess::Victim::kScheduled) {
    victim = event.victim_id;
  } else if (event.victim == ChurnProcess::Victim::kAdversarial) {
    const DynamicGraphView view(graph_);
    victim = churn_->select_victim(view);
  } else {
    victim = graph_.random_alive(rng_);
  }
  CHURNET_ASSERT(graph_.is_alive(victim));
  graph_.remove_node(victim, removal_scratch_);
  if (config_.policy == EdgePolicy::kRegenerate) {
    detail::regenerate_requests(graph_, rng_, removal_scratch_.orphans,
                                limits);
  }
  churn_->on_death(victim, event.time);
  report.node = victim;
  return report;
}

void PoissonNetwork::run_events(std::uint64_t events) {
  for (std::uint64_t i = 0; i < events; ++i) step();
}

void PoissonNetwork::run_until(double time) {
  CHURNET_EXPECTS(time >= now_);
  for (;;) {
    if (!pending_valid_) sample_pending();
    if (pending_.time > time) break;
    pending_valid_ = false;
    apply(pending_);
  }
  now_ = time;  // park the clock at the barrier; pending event stays queued
}

void PoissonNetwork::warm_up(double multiple) {
  CHURNET_EXPECTS(multiple > 0.0);
  run_until(now_ + churn_->warm_up_time(multiple));
}

double PoissonNetwork::age(NodeId node) const {
  CHURNET_EXPECTS(graph_.is_alive(node));
  return now_ - graph_.birth_time(node);
}

}  // namespace churnet
