#include "churn/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assertx.hpp"

namespace churnet {

AdversaryPolicy::AdversaryPolicy(AdversaryConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  CHURNET_EXPECTS(config.budget >= 0.0 && config.budget <= 1.0);
}

bool AdversaryPolicy::take_death() {
  // The boundary budgets draw nothing: 0 must leave the run byte-identical
  // to the base regime, and 1 should not burn entropy on a certainty.
  if (config_.budget <= 0.0) return false;
  if (config_.budget >= 1.0) return true;
  return rng_.bernoulli(config_.budget);
}

NodeId AdversaryPolicy::select(const GraphReadView& view) {
  CHURNET_EXPECTS(view.alive_count() > 0);
  switch (config_.rule) {
    case AdversaryRule::kMaxDegree:
      return view.extreme_degree(/*maximize=*/true);
    case AdversaryRule::kMinDegree:
      return view.extreme_degree(/*maximize=*/false);
    case AdversaryRule::kCutSet:
      return select_cutset(view);
    case AdversaryRule::kEclipse:
      return select_eclipse(view);
  }
  CHURNET_ASSERT(false);
  return kInvalidNode;
}

void AdversaryPolicy::on_death(NodeId id) {
  if (id == target_) target_ = kInvalidNode;
}

NodeId AdversaryPolicy::first_alive_other(const GraphReadView& view,
                                          NodeId exclude) const {
  const std::uint32_t bound = view.slot_upper_bound();
  for (std::uint32_t slot = 0; slot < bound; ++slot) {
    const NodeId id = view.alive_at(slot);
    if (id.valid() && id != exclude) return id;
  }
  return kInvalidNode;
}

NodeId AdversaryPolicy::select_eclipse(const GraphReadView& view) {
  // A persistent target, (re)picked uniformly from the adversary's own RNG
  // whenever the previous one died: rejection-sample slots (the alive set
  // is dense below slot_upper_bound, so this terminates fast).
  if (!target_.valid() || !view.alive_at(target_.slot).valid() ||
      view.alive_at(target_.slot) != target_) {
    const std::uint32_t bound = view.slot_upper_bound();
    CHURNET_ASSERT(bound > 0);
    for (;;) {
      const NodeId candidate =
          view.alive_at(static_cast<std::uint32_t>(rng_.below(bound)));
      if (candidate.valid()) {
        target_ = candidate;
        break;
      }
    }
  }
  // Starve the target: kill its smallest-id alive neighbor. An isolated
  // target (eclipse achieved — or never wired) yields the smallest other
  // alive node; a network of one yields the target itself (last resort).
  neighbors_.clear();
  view.append_neighbors(target_, neighbors_);
  if (!neighbors_.empty()) {
    return *std::min_element(neighbors_.begin(), neighbors_.end());
  }
  const NodeId fallback = first_alive_other(view, target_);
  return fallback.valid() ? fallback : target_;
}

void AdversaryPolicy::rebuild_cutset(const GraphReadView& view) {
  // Pivot: the first alive slot at or after the rotating cursor, so
  // successive balls sweep the slot space instead of re-growing around the
  // same (partially destroyed) region.
  const std::uint32_t bound = view.slot_upper_bound();
  CHURNET_ASSERT(bound > 0);
  NodeId pivot = kInvalidNode;
  for (std::uint32_t i = 0; i < bound; ++i) {
    std::uint32_t slot = cursor_ + i;
    if (slot >= bound) slot -= bound;
    const NodeId id = view.alive_at(slot);
    if (id.valid()) {
      pivot = id;
      cursor_ = slot + 1 == bound ? 0 : slot + 1;
      break;
    }
  }
  CHURNET_ASSERT(pivot.valid());

  // Grow a BFS ball of ~sqrt(alive) nodes, expanding each node's neighbors
  // in ascending id order (sorted — so the traversal, and therefore the
  // boundary, is independent of the view's neighbor ordering).
  const std::uint64_t alive = view.alive_count();
  const std::size_t ball_target = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(std::sqrt(static_cast<double>(alive)))));
  ball_.clear();
  in_ball_.assign(bound, 0);
  ball_.push_back(pivot);
  in_ball_[pivot.slot] = 1;
  for (std::size_t head = 0;
       head < ball_.size() && ball_.size() < ball_target; ++head) {
    neighbors_.clear();
    view.append_neighbors(ball_[head], neighbors_);
    std::sort(neighbors_.begin(), neighbors_.end());
    for (const NodeId peer : neighbors_) {
      if (in_ball_[peer.slot] != 0) continue;
      in_ball_[peer.slot] = 1;
      ball_.push_back(peer);
      if (ball_.size() >= ball_target) break;
    }
  }

  // The victim queue: ball members with at least one neighbor outside the
  // ball (the cut around the small set), in ascending id order. A ball
  // with no outside edges is a whole small component — kill all of it.
  boundary_.clear();
  for (const NodeId member : ball_) {
    neighbors_.clear();
    view.append_neighbors(member, neighbors_);
    for (const NodeId peer : neighbors_) {
      if (in_ball_[peer.slot] == 0) {
        boundary_.push_back(member);
        break;
      }
    }
  }
  if (boundary_.empty()) boundary_ = ball_;
  std::sort(boundary_.begin(), boundary_.end());
  boundary_next_ = 0;
}

NodeId AdversaryPolicy::select_cutset(const GraphReadView& view) {
  // Serve queued boundary victims first, skipping entries that died of
  // other causes since the ball was grown; rebuild when the queue drains.
  for (int attempt = 0; attempt < 2; ++attempt) {
    while (boundary_next_ < boundary_.size()) {
      const NodeId candidate = boundary_[boundary_next_++];
      const NodeId current = view.alive_at(candidate.slot);
      if (current.valid() && current == candidate) return candidate;
    }
    rebuild_cutset(view);
  }
  // A freshly rebuilt queue always starts with its alive pivot's ball.
  CHURNET_ASSERT(false && "cutset rebuild produced no alive victim");
  return kInvalidNode;
}

AdversarialChurn::AdversarialChurn(std::unique_ptr<ChurnProcess> base,
                                   AdversaryConfig config,
                                   std::uint64_t policy_seed,
                                   std::string name)
    : base_(std::move(base)),
      policy_(config, policy_seed),
      name_(std::move(name)) {
  CHURNET_EXPECTS(base_ != nullptr);
}

ChurnProcess::Step AdversarialChurn::next(std::uint64_t alive) {
  Step step = base_->next(alive);
  if (!step.is_birth && step.victim == Victim::kUniform &&
      policy_.take_death()) {
    step.victim = Victim::kAdversarial;
    step.victim_id = kInvalidNode;
  }
  return step;
}

NodeId AdversarialChurn::select_victim(const GraphReadView& view) {
  return policy_.select(view);
}

void AdversarialChurn::on_birth(NodeId id, double time) {
  base_->on_birth(id, time);
}

void AdversarialChurn::on_death(NodeId id, double time) {
  base_->on_death(id, time);
  policy_.on_death(id);
}

}  // namespace churnet
