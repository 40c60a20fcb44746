// Scenario registry: every (model × edge-policy × churn parameterization)
// the experiments run, addressable by name at runtime.
//
// A Scenario is a named factory producing an AnyNetwork from uniform
// ScenarioParams, so bench binaries and examples select models by string
// ("SDGR", "PDG", "static-dout", ...) instead of hard-coding a type per
// binary. The built-in registry covers the paper's four dynamic models
//
//   SDG   streaming,  no regeneration   (Definition 3.4)
//   SDGR  streaming,  regeneration      (Definition 3.13)
//   PDG   Poisson,    no regeneration   (Definition 4.9)
//   PDGR  Poisson,    regeneration      (Definition 4.14)
//
// plus the two static baselines (static d-out, Lemma B.1; Erdős–Rényi with
// matching mean degree). Every scenario carries a churn spec
// (churn/churn_spec.hpp): the paper models keep their exact processes
// ("stream", "poisson"), and composite names like "PDGR+pareto(2.5)" attach
// any continuous regime to a Poisson-family base — resolve() parses them on
// the fly, and ScenarioRegistry::extended() pre-registers the headline
// regimes. Custom registries can add more scenarios (e.g. bounded-degree
// variants via ScenarioParams::max_in_degree).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "churn/churn_spec.hpp"
#include "models/edge_policy.hpp"
#include "models/network.hpp"
#include "protocols/protocol_spec.hpp"

namespace churnet {

/// Uniform parameterization across scenarios. Model-specific mapping:
/// streaming uses n as both size and lifetime; Poisson-family regimes use
/// the paper's lambda = 1, mu = 1/n (mean lifetime n, stationary size n);
/// the baselines sample one static topology of ~n mean-degree-matched
/// nodes.
struct ScenarioParams {
  std::uint32_t n = 1000;
  std::uint32_t d = 8;
  std::uint64_t seed = 1;
  /// Bounded-degree extension cap; 0 = the paper's unbounded models.
  /// Ignored by the static baselines.
  std::uint32_t max_in_degree = 0;
  /// Accepted with no effect: every trial runs on one thread (DESIGN.md,
  /// decision 14). It stays because campaignbench/campaign_bench.cpp,
  /// which mirrors SweepPlan::run_job, still sets it.
  std::uint32_t intra_threads = 1;
  /// Optional churn-spec override ("pareto(2.5)", ...); empty keeps the
  /// scenario's own spec. Malformed or model-incompatible specs abort with
  /// the reason (CLI semantics, like ScenarioRegistry::at).
  std::string churn;
};

/// Which simulator a scenario instantiates.
enum class ModelKind : std::uint8_t {
  kStreaming,
  kPoisson,
  kStaticDOut,
  kErdosRenyi,
};

/// A named, constructible model configuration.
class Scenario {
 public:
  /// Default churn: "stream" for streaming models, "poisson" for
  /// Poisson-family models (the paper's processes).
  Scenario(std::string name, ModelKind model, EdgePolicy policy,
           std::string description);
  Scenario(std::string name, ModelKind model, EdgePolicy policy,
           ChurnSpec churn, std::string description);

  const std::string& name() const { return name_; }
  ModelKind model() const { return model_; }
  EdgePolicy policy() const { return policy_; }
  const ChurnSpec& churn() const { return churn_; }
  /// The dissemination protocol the engine runs on this scenario's
  /// networks (default: flood, the paper's process). Any protocol runs on
  /// any model — the dissemination driver adapts to the model's semantics.
  const ProtocolSpec& protocol() const { return protocol_; }
  const std::string& description() const { return description_; }
  /// True for the dynamic models (false for the static baselines).
  bool has_churn() const;

  /// A copy of this scenario running under `churn` instead (name gains a
  /// "+spec" suffix). Aborts with the reason when the spec cannot drive
  /// this model (streaming models take "stream" or an adversarial spec;
  /// Poisson-family models take any continuous regime, adversarial and
  /// burst included; baselines take none).
  Scenario with_churn(const ChurnSpec& churn) const;

  /// A copy of this scenario measured under `protocol` instead (name gains
  /// a "+spec" suffix when the spec is not the default flood).
  Scenario with_protocol(const ProtocolSpec& protocol) const;

  /// Builds a seeded, NOT-warmed-up network, on `recycled`'s storage when
  /// one is passed (typically the graph an earlier job handed back
  /// through AnyNetwork::release_graph). The graph is cleared first, so
  /// the network equals a fresh one bit for bit; once the graph's arrays
  /// have grown to a cell's size, a build reuses them instead of
  /// allocating.
  AnyNetwork make(const ScenarioParams& params,
                  DynamicGraph recycled = {}) const;

  /// Builds and warms up (streaming: 2n rounds; Poisson-family: 10
  /// expected lifetimes; baselines: born stationary), on `recycled`'s
  /// storage as make() does.
  AnyNetwork make_warmed(const ScenarioParams& params,
                         DynamicGraph recycled = {}) const;

 private:
  /// The spec this build uses: params.churn (parsed; aborts on errors) or
  /// the scenario's own. Validates model compatibility.
  ChurnSpec effective_churn(const ScenarioParams& params) const;

  std::string name_;
  ModelKind model_;
  EdgePolicy policy_;
  ChurnSpec churn_;
  ProtocolSpec protocol_;
  std::string description_;
};

/// Name-addressable collection of scenarios.
class ScenarioRegistry {
 public:
  /// The built-in registry: SDG, SDGR, PDG, PDGR, static-dout, erdos-renyi.
  static const ScenarioRegistry& paper();

  /// paper() plus the pre-registered extended churn regimes
  /// (PDGR+pareto/weibull/bursty/drift and a PDG heavy-tail variant).
  static const ScenarioRegistry& extended();

  ScenarioRegistry() = default;

  /// Registers a scenario; names are unique (re-adding replaces).
  void add(Scenario scenario);

  /// Case-insensitive lookup; nullptr when absent.
  const Scenario* find(std::string_view name) const;

  /// Lookup that aborts with the known names when absent (for CLI paths).
  const Scenario& at(std::string_view name) const;

  /// Like at(), but also accepts composite "BASE+spec(+spec...)" names:
  /// the base is looked up and each '+'-separated suffix is parsed as a
  /// ChurnSpec ("PDGR+pareto(2.5)") or a ProtocolSpec segment
  /// ("PDGR+push(3)", "PDGR+pareto(2.5)+flood+lossy(0.9)"), dispatched by
  /// segment name. The combined scenario is returned by value. Returns
  /// nullopt with the reason in `error` on unknown bases, malformed or
  /// unknown specs (listing the known churn regimes and protocol names),
  /// or incompatible model/spec pairs.
  std::optional<Scenario> try_resolve(std::string_view name,
                                      std::string* error = nullptr) const;

  /// try_resolve() that aborts with the reason (for CLI paths).
  Scenario resolve(std::string_view name) const;

  const std::vector<Scenario>& scenarios() const { return scenarios_; }
  std::vector<std::string> names() const;

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace churnet
