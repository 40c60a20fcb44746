#include "engine/scenario.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "common/assertx.hpp"
#include "common/specgram.hpp"
#include "models/poisson_network.hpp"
#include "models/static_network.hpp"
#include "models/streaming_network.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

ChurnSpec default_churn(ModelKind model) {
  ChurnSpec spec;
  spec.kind = model == ModelKind::kStreaming ? ChurnSpec::Kind::kStream
                                             : ChurnSpec::Kind::kJumpChain;
  return spec;
}

[[noreturn]] void abort_scenario(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

/// The unknown-name reason, listing every known scenario.
std::string unknown_scenario(std::string_view name,
                             const std::vector<Scenario>& known) {
  std::string message =
      "unknown scenario '" + std::string(name) + "'; known scenarios:";
  for (const Scenario& scenario : known) message += " " + scenario.name();
  return message;
}

/// Why `spec` cannot drive `model`, or nullopt when it can.
std::optional<std::string> incompatibility(const std::string& name,
                                           ModelKind model,
                                           const ChurnSpec& spec) {
  switch (model) {
    case ModelKind::kStreaming:
      if (spec.kind != ChurnSpec::Kind::kStream && !spec.adversarial()) {
        return "scenario '" + name + "': streaming models take only "
               "the 'stream' schedule or an adversarial spec "
               "(maxdeg/mindeg/cutset/eclipse) (got '" +
               spec.canonical() +
               "'); continuous regimes run on Poisson-family bases "
               "(PDG/PDGR)";
      }
      return std::nullopt;
    case ModelKind::kPoisson:
      if (!spec.continuous()) {
        return "scenario '" + name + "': Poisson-family models need "
               "a continuous churn spec (got '" + spec.canonical() + "')";
      }
      return std::nullopt;
    case ModelKind::kStaticDOut:
    case ModelKind::kErdosRenyi:
      return "scenario '" + name + "': static baselines take no churn spec";
  }
  CHURNET_ASSERT(false);
  return std::nullopt;
}

/// Aborts unless `spec` can drive `model` (the registry's CLI semantics).
void require_compatible(const std::string& name, ModelKind model,
                        const ChurnSpec& spec) {
  if (const std::optional<std::string> reason =
          incompatibility(name, model, spec)) {
    abort_scenario(*reason);
  }
}

}  // namespace

Scenario::Scenario(std::string name, ModelKind model, EdgePolicy policy,
                   std::string description)
    : Scenario(std::move(name), model, policy, default_churn(model),
               std::move(description)) {}

Scenario::Scenario(std::string name, ModelKind model, EdgePolicy policy,
                   ChurnSpec churn, std::string description)
    : name_(std::move(name)),
      model_(model),
      policy_(policy),
      churn_(churn),
      description_(std::move(description)) {}

bool Scenario::has_churn() const {
  return model_ == ModelKind::kStreaming || model_ == ModelKind::kPoisson;
}

Scenario Scenario::with_churn(const ChurnSpec& churn) const {
  require_compatible(name_, model_, churn);
  Scenario result(name_ + "+" + churn.canonical(), model_, policy_, churn,
                  description_ + ", churn " + churn.canonical());
  result.protocol_ = protocol_;
  return result;
}

Scenario Scenario::with_protocol(const ProtocolSpec& protocol) const {
  Scenario result = *this;
  result.protocol_ = protocol;
  if (protocol == ProtocolSpec{}) return result;  // default flood: no suffix
  result.name_ = name_ + "+" + protocol.canonical();
  result.description_ = description_ + ", protocol " + protocol.canonical();
  return result;
}

ChurnSpec Scenario::effective_churn(const ScenarioParams& params) const {
  if (params.churn.empty()) {
    // Validate the scenario's own spec too: a Scenario constructed
    // directly with an incompatible (model, spec) pair must abort at
    // build time, not silently run the wrong churn under a wrong name.
    require_compatible(name_, model_, churn_);
    return churn_;
  }
  std::string error;
  const std::optional<ChurnSpec> spec = ChurnSpec::parse(params.churn, &error);
  if (!spec.has_value()) {
    abort_scenario("scenario '" + name_ + "': " + error);
  }
  require_compatible(name_, model_, *spec);
  return *spec;
}

AnyNetwork Scenario::make(const ScenarioParams& params,
                          DynamicGraph recycled) const {
  switch (model_) {
    case ModelKind::kStreaming: {
      StreamingConfig config;
      config.n = params.n;
      config.d = params.d;
      config.policy = policy_;
      config.seed = params.seed;
      config.max_in_degree = params.max_in_degree;
      config.churn = effective_churn(params);  // stream or adversarial
      return AnyNetwork(StreamingNetwork(config, std::move(recycled)));
    }
    case ModelKind::kPoisson: {
      PoissonConfig config =
          PoissonConfig::with_n(params.n, params.d, policy_, params.seed);
      config.max_in_degree = params.max_in_degree;
      config.churn = effective_churn(params);
      return AnyNetwork(
          PoissonNetwork(std::move(config), std::move(recycled)));
    }
    case ModelKind::kStaticDOut: {
      if (!params.churn.empty()) {
        abort_scenario("scenario '" + name_ +
                       "': static baselines take no churn spec");
      }
      StaticConfig config;
      config.n = params.n;
      config.d = params.d;
      config.topology = StaticConfig::Topology::kDOut;
      config.seed = params.seed;
      return AnyNetwork(StaticNetwork(config, std::move(recycled)));
    }
    case ModelKind::kErdosRenyi: {
      if (!params.churn.empty()) {
        abort_scenario("scenario '" + name_ +
                       "': static baselines take no churn spec");
      }
      StaticConfig config;
      config.n = params.n;
      config.d = params.d;  // p defaults to 2d/n inside StaticNetwork
      config.topology = StaticConfig::Topology::kErdosRenyi;
      config.seed = params.seed;
      return AnyNetwork(StaticNetwork(config, std::move(recycled)));
    }
  }
  CHURNET_ASSERT(false);
  return AnyNetwork();
}

AnyNetwork Scenario::make_warmed(const ScenarioParams& params,
                                 DynamicGraph recycled) const {
  const telemetry::PhaseTimer span(telemetry::Phase::kGenesis);
  AnyNetwork net = make(params, std::move(recycled));
  net.warm_up();
  return net;
}

const ScenarioRegistry& ScenarioRegistry::paper() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    r.add(Scenario("SDG", ModelKind::kStreaming, EdgePolicy::kNone,
                   "streaming dynamic graph, no regeneration (Def. 3.4)"));
    r.add(Scenario("SDGR", ModelKind::kStreaming, EdgePolicy::kRegenerate,
                   "streaming dynamic graph with regeneration (Def. 3.13)"));
    r.add(Scenario("PDG", ModelKind::kPoisson, EdgePolicy::kNone,
                   "Poisson dynamic graph, no regeneration (Def. 4.9)"));
    r.add(Scenario("PDGR", ModelKind::kPoisson, EdgePolicy::kRegenerate,
                   "Poisson dynamic graph with regeneration (Def. 4.14)"));
    r.add(Scenario("static-dout", ModelKind::kStaticDOut, EdgePolicy::kNone,
                   "static d-out random graph baseline (Lemma B.1)"));
    r.add(Scenario("erdos-renyi", ModelKind::kErdosRenyi, EdgePolicy::kNone,
                   "Erdos-Renyi G(n, 2d/n) baseline (mean-degree matched)"));
    return r;
  }();
  return registry;
}

const ScenarioRegistry& ScenarioRegistry::extended() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r = paper();
    const Scenario& pdg = paper().at("PDG");
    const Scenario& pdgr = paper().at("PDGR");
    const auto spec = [](std::string_view text) {
      const std::optional<ChurnSpec> parsed = ChurnSpec::parse(text);
      CHURNET_ASSERT(parsed.has_value());
      return *parsed;
    };
    // The headline extended regimes: heavy-tailed session lengths (the
    // empirical P2P shape), bursty mass departures, and drifting size.
    r.add(pdgr.with_churn(spec("pareto(2.5)")));
    r.add(pdgr.with_churn(spec("weibull(0.7)")));
    r.add(pdgr.with_churn(spec("bursty(4,0.5)")));
    r.add(pdgr.with_churn(spec("drift(2)")));
    r.add(pdgr.with_churn(spec("drift(0.5)")));
    r.add(pdg.with_churn(spec("pareto(2.5)")));
    // Headline adversarial / correlated regimes (the resilience target
    // sweeps these axes; any budget or burst shape remains reachable
    // through composite names).
    const Scenario& sdgr = paper().at("SDGR");
    r.add(sdgr.with_churn(spec("maxdeg(0.5)")));
    r.add(pdgr.with_churn(spec("maxdeg(0.5)")));
    r.add(pdgr.with_churn(spec("eclipse(0.5)")));
    r.add(pdgr.with_churn(spec("massfail(0.1,1)")));
    return r;
  }();
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  for (Scenario& existing : scenarios_) {
    if (iequals(existing.name(), scenario.name())) {
      existing = std::move(scenario);
      return;
    }
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const Scenario& scenario : scenarios_) {
    if (iequals(scenario.name(), name)) return &scenario;
  }
  return nullptr;
}

const Scenario& ScenarioRegistry::at(std::string_view name) const {
  const Scenario* scenario = find(name);
  if (scenario != nullptr) return *scenario;
  abort_scenario(unknown_scenario(name, scenarios_));
}

Scenario ScenarioRegistry::resolve(std::string_view name) const {
  std::string error;
  std::optional<Scenario> scenario = try_resolve(name, &error);
  if (!scenario.has_value()) abort_scenario(error);
  return std::move(*scenario);
}

std::optional<Scenario> ScenarioRegistry::try_resolve(
    std::string_view name, std::string* error) const {
  const auto fail = [error](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return std::optional<Scenario>();
  };
  // Registered names win outright, so pre-registered composites (and any
  // user scenario that happens to contain '+') stay addressable.
  if (const Scenario* registered = find(name)) return *registered;
  const std::vector<std::string_view> segments = split_spec_segments(name);
  const std::string_view base_name = segments.size() == 1 ? name : segments[0];
  const Scenario* base = find(base_name);
  if (base == nullptr) return fail(unknown_scenario(base_name, scenarios_));
  const auto composite_error = [&name](const std::string& reason) {
    return "scenario '" + std::string(name) + "': " + reason;
  };
  Scenario current = *base;
  // Each suffix segment is dispatched by its call name: churn regimes go
  // through ChurnSpec, protocol terms accumulate into one ProtocolSpec
  // ("flood+lossy(0.9)" arrives as two segments of the same spec).
  bool have_churn = false;
  std::string protocol_text;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const std::string head = spec_call_name(segments[i]);
    if (ChurnSpec::is_known_name(head)) {
      if (have_churn) return fail(composite_error("more than one churn spec"));
      std::string parse_error;
      const std::optional<ChurnSpec> spec =
          ChurnSpec::parse(segments[i], &parse_error);
      if (!spec.has_value()) return fail(composite_error(parse_error));
      if (std::optional<std::string> reason =
              incompatibility(current.name(), current.model(), *spec)) {
        return fail(std::move(*reason));
      }
      current = current.with_churn(*spec);
      have_churn = true;
    } else if (ProtocolSpec::is_known_name(head)) {
      if (!protocol_text.empty()) protocol_text += '+';
      protocol_text += std::string(segments[i]);
    } else {
      // Keep both families' diagnostics: the churn error names the known
      // regimes, and the protocol catalog is listed alongside.
      std::string parse_error;
      ChurnSpec::parse(segments[i], &parse_error);
      return fail(composite_error(parse_error + "; known protocols: " +
                                  ProtocolSpec::known_names()));
    }
  }
  if (!protocol_text.empty()) {
    std::string parse_error;
    const std::optional<ProtocolSpec> spec =
        ProtocolSpec::parse(protocol_text, &parse_error);
    if (!spec.has_value()) return fail(composite_error(parse_error));
    current = current.with_protocol(*spec);
  }
  return current;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) result.push_back(scenario.name());
  return result;
}

}  // namespace churnet
