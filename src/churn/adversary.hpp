// Adversarial victim selection: churn regimes in which deaths target the
// network instead of striking uniformly (DESIGN.md §3 and decision 18; cf.
// Cruciani 2025 on expander maintenance under targeted deletions).
//
// An AdversaryPolicy owns the adversary's state and RNG stream and picks
// victims through the GraphReadView contract (churn/churn_process.hpp):
//
//   maxdeg   kill an alive node of maximum total degree (hub removal)
//   mindeg   kill an alive node of minimum total degree (periphery erosion,
//            pushes nodes toward isolation)
//   cutset   kill nodes on the boundary of a small BFS ball: grow a ball of
//            ~sqrt(alive) nodes from a rotating pivot, queue its frontier
//            (members with a neighbor outside the ball), and serve deaths
//            from the queue — the adversary keeps attacking the cut edges
//            around small sets, the paper's expansion bottleneck
//   eclipse  capture a target node's neighborhood: keep one (randomly
//            chosen, persistent) target and always kill its lowest-id
//            alive neighbor, starving the target of links
//
// Determinism contract: selections are a pure function of (rule, seed,
// view) — degree rules take the view's extreme-degree node, whose ties the
// view contract breaks toward the smallest slot, the cutset BFS
// expands neighbors in sorted id order, and the eclipse victim is the
// smallest neighbor id — so any conforming GraphReadView implementation
// (including a test's shadow adjacency) reproduces the exact choice.
//
// The `budget` in [0,1] is the probability that an individual death is
// adversarial (the rest follow the base regime). budget 0 draws nothing
// from the adversary's RNG and never redirects an event, so a budget-0 run
// is byte-identical to the base regime; budget 1 redirects every death,
// also without Bernoulli draws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "churn/churn_process.hpp"
#include "common/rng.hpp"

namespace churnet {

enum class AdversaryRule : std::uint8_t {
  kMaxDegree,
  kMinDegree,
  kCutSet,
  kEclipse,
};

struct AdversaryConfig {
  AdversaryRule rule = AdversaryRule::kMaxDegree;
  /// Probability that a death is adversarial, in [0,1].
  double budget = 1.0;
};

/// The adversary's seed stream, derived from the owning network's seed but
/// disjoint from both the wiring RNG and the base churn process — a
/// budget-0 run must replay the base regime's draws bit-for-bit.
inline std::uint64_t adversary_seed(std::uint64_t network_seed) {
  return derive_seed(network_seed, 0xADFE5A11ULL, 0);
}

class AdversaryPolicy {
 public:
  AdversaryPolicy(AdversaryConfig config, std::uint64_t seed);

  /// Whether the next death is adversarial. Consumes one Bernoulli draw
  /// only for budgets strictly inside (0,1).
  bool take_death();

  /// Picks the victim per the configured rule; requires
  /// view.alive_count() > 0 and returns an alive node.
  NodeId select(const GraphReadView& view);

  /// Death notification (any victim rule): maintains the eclipse target.
  void on_death(NodeId id);

  const AdversaryConfig& config() const { return config_; }

  // ---- introspection (tests, benches) ----------------------------------

  /// Current eclipse target (invalid until the first eclipse selection or
  /// after the target itself died).
  NodeId eclipse_target() const { return target_; }
  /// The last BFS ball the cutset rule grew (empty before the first
  /// selection).
  const std::vector<NodeId>& cutset_ball() const { return ball_; }
  /// The cutset victim queue computed from that ball (boundary members in
  /// ascending id order); entries already served may be dead.
  const std::vector<NodeId>& cutset_boundary() const { return boundary_; }

 private:
  NodeId select_cutset(const GraphReadView& view);
  NodeId select_eclipse(const GraphReadView& view);
  void rebuild_cutset(const GraphReadView& view);
  /// Smallest-slot alive node != exclude; invalid when none exists.
  NodeId first_alive_other(const GraphReadView& view, NodeId exclude) const;

  AdversaryConfig config_;
  Rng rng_;
  NodeId target_ = kInvalidNode;  // eclipse
  std::uint32_t cursor_ = 0;      // cutset pivot rotation
  std::vector<NodeId> boundary_;  // cutset victim queue
  std::size_t boundary_next_ = 0;
  std::vector<NodeId> ball_;         // cutset BFS ball (also the queue)
  std::vector<std::uint8_t> in_ball_;  // slot-indexed membership scratch
  std::vector<NodeId> neighbors_;    // shared neighbor scratch
};

/// Adversarial churn over a continuous base regime: the base process
/// (normally the paper's Poisson jump chain) drives event times and the
/// birth/death mix unchanged; each kUniform death is redirected to the
/// adversary with probability `budget`. Used by the Poisson-family models;
/// StreamingChurn embeds an AdversaryPolicy directly for the round
/// schedule.
class AdversarialChurn final : public ChurnProcess {
 public:
  /// `name` is the canonical spec ("maxdeg(0.50)", ...).
  AdversarialChurn(std::unique_ptr<ChurnProcess> base, AdversaryConfig config,
                   std::uint64_t policy_seed, std::string name);

  Step next(std::uint64_t alive) override;
  NodeId select_victim(const GraphReadView& view) override;
  void on_birth(NodeId id, double time) override;
  void on_death(NodeId id, double time) override;

  std::string name() const override { return name_; }
  double mean_lifetime() const override { return base_->mean_lifetime(); }
  double warm_up_time(double multiple) const override {
    return base_->warm_up_time(multiple);
  }

  const AdversaryPolicy& policy() const { return policy_; }
  const ChurnProcess& base() const { return *base_; }

 private:
  std::unique_ptr<ChurnProcess> base_;
  AdversaryPolicy policy_;
  std::string name_;
};

}  // namespace churnet
