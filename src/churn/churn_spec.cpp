#include "churn/churn_spec.hpp"

#include <cmath>
#include <vector>

#include "churn/adversary.hpp"
#include "churn/burst_churn.hpp"
#include "churn/lifetime_churn.hpp"
#include "churn/phased_churn.hpp"
#include "churn/poisson_churn.hpp"
#include "churn/streaming_churn.hpp"
#include "common/assertx.hpp"
#include "common/rng.hpp"
#include "common/specgram.hpp"
#include "common/table.hpp"

namespace churnet {
namespace {

// Regime defaults used when arguments are omitted.
constexpr double kDefaultParetoAlpha = 2.5;
constexpr double kDefaultWeibullShape = 0.7;
constexpr double kDefaultBurstyBoost = 4.0;
constexpr double kDefaultBurstyPhase = 0.5;
constexpr double kDefaultDriftGrowth = 2.0;
constexpr double kDefaultAdversaryBudget = 1.0;
constexpr double kDefaultBurstFraction = 0.1;
constexpr double kDefaultBurstPeriod = 1.0;

// The samplers cross phase and burst boundaries one loop step at a time, so
// a period far below a lifetime stalls the run. The shortest period in the
// tree is 0.25 lifetimes.
constexpr double kMinPeriodLifetimes = 0.01;

// The one name -> kind table: parse() dispatches through it and
// is_known_name() scans it, so a regime added here is automatically
// routable by ScenarioRegistry::resolve's segment dispatch.
struct KnownRegime {
  const char* name;
  ChurnSpec::Kind kind;
};
constexpr KnownRegime kKnownRegimes[] = {
    {"stream", ChurnSpec::Kind::kStream},
    {"poisson", ChurnSpec::Kind::kJumpChain},
    {"pareto", ChurnSpec::Kind::kPareto},
    {"weibull", ChurnSpec::Kind::kWeibull},
    {"bursty", ChurnSpec::Kind::kBursty},
    {"drift", ChurnSpec::Kind::kDrift},
    {"maxdeg", ChurnSpec::Kind::kMaxDeg},
    {"mindeg", ChurnSpec::Kind::kMinDeg},
    {"cutset", ChurnSpec::Kind::kCutSet},
    {"eclipse", ChurnSpec::Kind::kEclipse},
    {"massfail", ChurnSpec::Kind::kMassFail},
    {"flashcrowd", ChurnSpec::Kind::kFlashCrowd},
};

const KnownRegime* find_regime(std::string_view name) {
  for (const KnownRegime& regime : kKnownRegimes) {
    if (name == regime.name) return &regime;
  }
  return nullptr;
}

bool fail(std::string* error, std::string message) {
  return spec_fail(error, std::move(message));
}

/// Rejects a phase length or burst period below kMinPeriodLifetimes (and
/// NaN).
bool check_period(const char* what, double period, std::string* error) {
  if (period >= kMinPeriodLifetimes) return true;
  return fail(error, std::string(what) + " must be at least " +
                         fmt_spec_arg(kMinPeriodLifetimes) +
                         " lifetimes (got " + fmt_spec_arg(period) +
                         "); each boundary costs the sampler a step, so a "
                         "shorter period stalls the run");
}

}  // namespace

bool ChurnSpec::is_known_name(std::string_view name) {
  return find_regime(lowercase_spec(name)) != nullptr;
}

std::vector<std::pair<std::string, std::string>> ChurnSpec::catalog() {
  const std::string min_period = fmt_spec_arg(kMinPeriodLifetimes);
  return {
      {"stream",
       "the paper's streaming round schedule (Def. 3.2); streaming models "
       "only"},
      {"poisson", "the paper's jump chain (Def. 4.1 / Lemma 4.6)"},
      {"pareto(a)",
       "Pareto session lengths, tail index a > 1 (default 2.5), mean 1/mu"},
      {"weibull(k)",
       "Weibull session lengths, shape k > 0 (default 0.7), mean 1/mu"},
      {"bursty(b,p)",
       "on/off death rates mu*b / mu/b (b > 1), phase length p >= " +
           min_period + " lifetimes (defaults 4, 0.5)"},
      {"drift(g)",
       "stationary through warm-up, then birth rate g*lambda (default 2)"},
      {"maxdeg(b)",
       "adversarial max-degree kills with budget b in [0,1] (default 1); "
       "streaming and Poisson-family models"},
      {"mindeg(b)",
       "adversarial min-degree kills, budget b in [0,1] (default 1)"},
      {"cutset(b)",
       "adversarial small-set boundary kills (BFS-ball frontiers), budget "
       "b in [0,1] (default 1)"},
      {"eclipse(b)",
       "adversarial neighborhood capture of a persistent target, budget b "
       "in [0,1] (default 1)"},
      {"massfail(p,T)",
       "kills floor(p*alive) at once every T lifetimes, p in (0,1), T >= " +
           min_period + " (defaults 0.1, 1); Poisson-family models only"},
      {"flashcrowd(f,T)",
       "births floor(f*alive) at once every T lifetimes, f > 0, T >= " +
           min_period +
           ", (1+f)e^-T < 1 (defaults 0.1, 1); Poisson-family models only"},
  };
}

std::vector<std::string> ChurnSpec::known_names() {
  std::vector<std::string> names;
  for (const KnownRegime& regime : kKnownRegimes) {
    names.emplace_back(regime.name);
  }
  return names;
}

AdversaryConfig ChurnSpec::adversary_config() const {
  CHURNET_EXPECTS(adversarial());
  AdversaryConfig config;
  switch (kind) {
    case Kind::kMaxDeg:
      config.rule = AdversaryRule::kMaxDegree;
      break;
    case Kind::kMinDeg:
      config.rule = AdversaryRule::kMinDegree;
      break;
    case Kind::kCutSet:
      config.rule = AdversaryRule::kCutSet;
      break;
    case Kind::kEclipse:
      config.rule = AdversaryRule::kEclipse;
      break;
    default:
      CHURNET_ASSERT(false);
  }
  config.budget = a;
  return config;
}

std::string ChurnSpec::canonical() const {
  switch (kind) {
    case Kind::kStream:
      return "stream";
    case Kind::kJumpChain:
      return "poisson";
    case Kind::kPareto:
      return "pareto(" + fmt_spec_arg(a) + ")";
    case Kind::kWeibull:
      return "weibull(" + fmt_spec_arg(a) + ")";
    case Kind::kBursty:
      return "bursty(" + fmt_spec_arg(a) + "," + fmt_spec_arg(b) + ")";
    case Kind::kDrift:
      return "drift(" + fmt_spec_arg(a) + ")";
    case Kind::kMaxDeg:
      return "maxdeg(" + fmt_spec_arg(a) + ")";
    case Kind::kMinDeg:
      return "mindeg(" + fmt_spec_arg(a) + ")";
    case Kind::kCutSet:
      return "cutset(" + fmt_spec_arg(a) + ")";
    case Kind::kEclipse:
      return "eclipse(" + fmt_spec_arg(a) + ")";
    case Kind::kMassFail:
      return "massfail(" + fmt_spec_arg(a) + "," + fmt_spec_arg(b) + ")";
    case Kind::kFlashCrowd:
      return "flashcrowd(" + fmt_spec_arg(a) + "," + fmt_spec_arg(b) + ")";
  }
  CHURNET_ASSERT(false);
  return "";
}

std::optional<ChurnSpec> ChurnSpec::parse(std::string_view text,
                                          std::string* error) {
  SpecCall call;
  if (!split_spec_call(text, "churn spec", &call, error)) return std::nullopt;
  const std::string& name = call.name;
  const std::vector<double>& args = call.args;

  const auto arity = [&](std::size_t max_args) {
    if (args.size() <= max_args) return true;
    fail(error, "churn spec '" + std::string(trim_spec(text)) +
                    "': at most " + std::to_string(max_args) +
                    " argument(s) allowed");
    return false;
  };

  const KnownRegime* regime = find_regime(name);
  if (regime == nullptr) {
    // List the full catalog's spellings so the error can never drift from
    // what --list-churn prints (the catalog-completeness test pins both
    // against the factory table above).
    std::string known;
    for (const auto& [spelling, description] : catalog()) {
      if (!known.empty()) known += ", ";
      known += spelling;
    }
    fail(error, "unknown churn regime '" + name + "'; known: " + known);
    return std::nullopt;
  }
  // strtod accepts "inf", and no regime parameter may be infinite. NaN
  // is left to the range checks below, which reject it by name.
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::isinf(args[i])) {
      fail(error, "churn spec '" + std::string(trim_spec(text)) +
                      "': argument " + std::to_string(i + 1) +
                      " must be finite");
      return std::nullopt;
    }
  }
  ChurnSpec spec;
  spec.kind = regime->kind;
  switch (regime->kind) {
    case Kind::kStream:
    case Kind::kJumpChain:
      if (!arity(0)) return std::nullopt;
      return spec;
    case Kind::kPareto:
      if (!arity(1)) return std::nullopt;
      spec.a = args.empty() ? kDefaultParetoAlpha : args[0];
      if (!(spec.a > 1.0)) {  // negated: also rejects NaN
        fail(error, "pareto tail index must be > 1 (got " +
                        fmt_fixed(spec.a, 3) +
                        "); the mean lifetime is infinite otherwise");
        return std::nullopt;
      }
      return spec;
    case Kind::kWeibull:
      if (!arity(1)) return std::nullopt;
      spec.a = args.empty() ? kDefaultWeibullShape : args[0];
      if (!(spec.a > 0.0)) {
        fail(error, "weibull shape must be > 0 (got " + fmt_fixed(spec.a, 3) +
                        ")");
        return std::nullopt;
      }
      // The mean-normalized scale is 1 / (mu * Gamma(1 + 1/k)), which
      // underflows to 0 once Gamma overflows (k below ~0.0059).
      if (!std::isfinite(std::tgamma(1.0 + 1.0 / spec.a))) {
        fail(error, "weibull shape " + fmt_sci(spec.a) +
                        " is too small: Gamma(1 + 1/k) overflows for "
                        "k < ~0.0059");
        return std::nullopt;
      }
      return spec;
    case Kind::kBursty:
      if (!arity(2)) return std::nullopt;
      spec.a = args.empty() ? kDefaultBurstyBoost : args[0];
      spec.b = args.size() < 2 ? kDefaultBurstyPhase : args[1];
      if (!(spec.a > 1.0)) {
        fail(error, "bursty boost must be > 1 (got " + fmt_fixed(spec.a, 3) +
                        ")");
        return std::nullopt;
      }
      if (!check_period("bursty phase length", spec.b, error)) {
        return std::nullopt;
      }
      return spec;
    case Kind::kDrift:
      if (!arity(1)) return std::nullopt;
      spec.a = args.empty() ? kDefaultDriftGrowth : args[0];
      if (!(spec.a > 0.0)) {
        fail(error, "drift growth factor must be > 0 (got " +
                        fmt_fixed(spec.a, 3) + ")");
        return std::nullopt;
      }
      return spec;
    case Kind::kMaxDeg:
    case Kind::kMinDeg:
    case Kind::kCutSet:
    case Kind::kEclipse:
      if (!arity(1)) return std::nullopt;
      spec.a = args.empty() ? kDefaultAdversaryBudget : args[0];
      if (!(spec.a >= 0.0 && spec.a <= 1.0)) {  // negated: also rejects NaN
        fail(error, std::string(regime->name) +
                        " budget must be in [0,1] (got " +
                        fmt_fixed(spec.a, 3) +
                        "); it is the probability a death is adversarial");
        return std::nullopt;
      }
      return spec;
    case Kind::kMassFail:
      if (!arity(2)) return std::nullopt;
      spec.a = args.empty() ? kDefaultBurstFraction : args[0];
      spec.b = args.size() < 2 ? kDefaultBurstPeriod : args[1];
      if (!(spec.a > 0.0 && spec.a < 1.0)) {
        fail(error, "massfail fraction must be in (0,1) (got " +
                        fmt_fixed(spec.a, 3) +
                        "); a full-fraction burst would empty the network "
                        "mid-burst");
        return std::nullopt;
      }
      if (!check_period("massfail period", spec.b, error)) {
        return std::nullopt;
      }
      return spec;
    case Kind::kFlashCrowd:
      if (!arity(2)) return std::nullopt;
      spec.a = args.empty() ? kDefaultBurstFraction : args[0];
      spec.b = args.size() < 2 ? kDefaultBurstPeriod : args[1];
      if (!(spec.a > 0.0)) {
        fail(error, "flashcrowd burst fraction must be > 0 (got " +
                        fmt_fixed(spec.a, 3) + ")");
        return std::nullopt;
      }
      if (!(spec.b > 0.0)) {
        fail(error, "flashcrowd period must be > 0 lifetimes (got " +
                        fmt_fixed(spec.b, 3) + ")");
        return std::nullopt;
      }
      // Between bursts the population's distance from n shrinks by e^-T,
      // and each burst multiplies the population by (1+f): the burst tops
      // converge only if (1+f)e^-T < 1, i.e. ln(1+f) < T.
      if (!(std::log1p(spec.a) < spec.b)) {
        fail(error, "flashcrowd has no stationary population unless "
                    "(1+f)e^-T < 1, i.e. T > ln(1+f) lifetimes (got f=" +
                        fmt_sci(spec.a) + ", T=" + fmt_sci(spec.b) +
                        "); the burst-top population would grow without "
                        "bound");
        return std::nullopt;
      }
      if (!check_period("flashcrowd period", spec.b, error)) {
        return std::nullopt;
      }
      return spec;
  }
  CHURNET_ASSERT(false);
  return std::nullopt;
}

std::unique_ptr<ChurnProcess> make_churn_process(const ChurnSpec& spec,
                                                 double lambda, double mu,
                                                 std::uint64_t network_seed) {
  // One seeding path for every regime — and exactly the pre-refactor
  // derivation for the paper's jump chain.
  const std::uint64_t seed = Rng(network_seed).next_u64();
  switch (spec.kind) {
    case ChurnSpec::Kind::kStream:
      return nullptr;  // size-coupled; built by StreamingNetwork
    case ChurnSpec::Kind::kJumpChain:
      return std::make_unique<PoissonJumpChurn>(lambda, mu, seed);
    case ChurnSpec::Kind::kPareto:
      return std::make_unique<LifetimeChurn>(
          LifetimeLaw{LifetimeLaw::Kind::kPareto, spec.a}, lambda, mu, seed);
    case ChurnSpec::Kind::kWeibull:
      return std::make_unique<LifetimeChurn>(
          LifetimeLaw{LifetimeLaw::Kind::kWeibull, spec.a}, lambda, mu, seed);
    case ChurnSpec::Kind::kBursty:
      return std::make_unique<PhasedChurn>(
          make_bursty_churn(spec.a, spec.b, lambda, mu, seed));
    case ChurnSpec::Kind::kDrift:
      return std::make_unique<PhasedChurn>(
          make_drift_churn(spec.a, lambda, mu, seed));
    case ChurnSpec::Kind::kMaxDeg:
    case ChurnSpec::Kind::kMinDeg:
    case ChurnSpec::Kind::kCutSet:
    case ChurnSpec::Kind::kEclipse:
      // The paper's jump chain drives times and the birth/death mix (with
      // the exact poisson seed, so budget 0 replays "poisson" bit-for-
      // bit); the policy redirects budgeted deaths from its own stream.
      return std::make_unique<AdversarialChurn>(
          std::make_unique<PoissonJumpChurn>(lambda, mu, seed),
          spec.adversary_config(), adversary_seed(network_seed),
          spec.canonical());
    case ChurnSpec::Kind::kMassFail:
      return std::make_unique<BurstChurn>(BurstChurn::Kind::kMassFail,
                                          spec.a, spec.b, lambda, mu, seed);
    case ChurnSpec::Kind::kFlashCrowd:
      return std::make_unique<BurstChurn>(BurstChurn::Kind::kFlashCrowd,
                                          spec.a, spec.b, lambda, mu, seed);
  }
  CHURNET_ASSERT(false);
  return nullptr;
}

}  // namespace churnet
