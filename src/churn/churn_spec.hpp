// Textual churn-regime specs: the grammar scenarios and sweeps use to name
// a churn process, and the factory that instantiates one.
//
// Grammar (case-insensitive, optional whitespace):
//
//   spec    := name | name '(' args ')'
//   name    := "stream" | "poisson" | "pareto" | "weibull" | "bursty"
//              | "drift" | "maxdeg" | "mindeg" | "cutset" | "eclipse"
//              | "massfail" | "flashcrowd"
//   args    := number (',' number)*
//
//   stream          the paper's streaming round schedule (Def. 3.2);
//                   streaming models only
//   poisson         the paper's jump chain (Def. 4.1 / Lemma 4.6)
//   pareto(a)       Pareto(tail index a > 1) session lengths, mean 1/mu
//   weibull(k)      Weibull(shape k > 0) session lengths, mean 1/mu
//   bursty(b,p)     on/off death rates mu*b / mu/b (b > 1), phase length
//                   p >= 0.01 expected lifetimes
//   drift(g)        stationary through warm-up, then birth rate g*lambda
//   maxdeg(b)       adversarial: each death is a max-degree kill with
//                   probability b in [0,1] (the budget); runs on streaming
//                   AND Poisson-family bases (churn/adversary.hpp)
//   mindeg(b)       adversarial min-degree kills, budget b
//   cutset(b)       adversarial small-set boundary kills, budget b
//   eclipse(b)      adversarial neighborhood capture of a target, budget b
//   massfail(p,T)   kills floor(p*alive) at once every T >= 0.01
//                   lifetimes, jump-chain baseline between bursts;
//                   Poisson-family models only (churn/burst_churn.hpp)
//   flashcrowd(f,T) births floor(f*alive) at once every T >= 0.01
//                   lifetimes; Poisson-family models only
//
// Omitted arguments take the documented defaults. Malformed specs are
// rejected with a one-line reason (unknown name, wrong arity, parameter
// out of range), surfaced verbatim by the scenario registry and the sweep
// config loader.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "churn/adversary.hpp"
#include "churn/churn_process.hpp"

namespace churnet {

struct ChurnSpec {
  enum class Kind : std::uint8_t {
    kStream,
    kJumpChain,
    kPareto,
    kWeibull,
    kBursty,
    kDrift,
    kMaxDeg,
    kMinDeg,
    kCutSet,
    kEclipse,
    kMassFail,
    kFlashCrowd,
  };

  Kind kind = Kind::kJumpChain;
  /// First parameter: pareto alpha / weibull shape / bursty boost /
  /// drift growth factor / adversary budget / burst fraction. Unused for
  /// stream and poisson.
  double a = 0.0;
  /// Second parameter: bursty phase length or burst period, in expected
  /// lifetimes.
  double b = 0.0;

  /// True for every regime the continuous-time simulator can run (all but
  /// the streaming round schedule).
  bool continuous() const { return kind != Kind::kStream; }

  /// True for the adversarial victim-selection rules
  /// (maxdeg/mindeg/cutset/eclipse) — the only non-stream specs a
  /// streaming model also accepts (the base schedule is implied by the
  /// model; only victim selection changes).
  bool adversarial() const {
    return kind == Kind::kMaxDeg || kind == Kind::kMinDeg ||
           kind == Kind::kCutSet || kind == Kind::kEclipse;
  }

  /// The adversary rule + budget an adversarial spec names; requires
  /// adversarial().
  AdversaryConfig adversary_config() const;

  /// The spec in canonical text form ("pareto(2.50)", "poisson", ...);
  /// matches ChurnProcess::name() of the instantiated process.
  std::string canonical() const;

  /// Parses `text`; on failure returns nullopt and, when `error` is
  /// non-null, stores a one-line reason.
  static std::optional<ChurnSpec> parse(std::string_view text,
                                        std::string* error = nullptr);

  /// True when `name` ("pareto" — the call name alone, no arguments) names
  /// a churn regime; used to dispatch composite-scenario segments between
  /// the churn and protocol spec families before a full parse.
  static bool is_known_name(std::string_view name);

  /// The churn-regime catalog as (spelling, description) rows — the same
  /// shape as ProtocolSpec::catalog() / ObserverSpec::catalog(), consumed
  /// by the shared listing helper (engine/spec_catalog.hpp). Every
  /// spelling's call name is a known_names() entry and vice versa (pinned
  /// by the catalog-completeness test).
  static std::vector<std::pair<std::string, std::string>> catalog();

  /// Every regime name parse() dispatches on, in registration order — the
  /// factory-side name list the catalog-completeness test cross-checks
  /// against catalog().
  static std::vector<std::string> known_names();

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Instantiates the continuous-time process a spec names, with base rates
/// (lambda, mu) — the paper convention is lambda = 1, mu = 1/n. The
/// process seed is derived from the owning network's seed exactly as the
/// pre-refactor simulators did (Rng(seed).next_u64()), preserving
/// bit-identical paper models. Returns nullptr for Kind::kStream (the
/// streaming schedule is size-coupled and built by StreamingNetwork).
std::unique_ptr<ChurnProcess> make_churn_process(const ChurnSpec& spec,
                                                 double lambda, double mu,
                                                 std::uint64_t network_seed);

}  // namespace churnet
