#include "observe/observer_spec.hpp"

#include <cmath>
#include <limits>

#include "common/assertx.hpp"
#include "common/specgram.hpp"
#include "common/table.hpp"
#include "observe/observers.hpp"

namespace churnet {
namespace {

struct KnownObserver {
  const char* name;
  ObserverSpec::Kind kind;
  /// Default for the single numeric argument; NaN = takes no argument.
  double default_arg;
};

constexpr double kNoArg = std::numeric_limits<double>::quiet_NaN();

// The one name -> kind table: parse() dispatches through it and
// is_known_name() scans it, matching the churn/protocol spec families.
const KnownObserver kKnownObservers[] = {
    {"expansion", ObserverSpec::Kind::kExpansion, 8.0},
    {"spectral", ObserverSpec::Kind::kSpectral,
     static_cast<double>(SpectralObserver::kDefaultIterations)},
    {"isolated", ObserverSpec::Kind::kIsolated, kNoArg},
    {"degrees", ObserverSpec::Kind::kDegrees, kNoArg},
    {"ages", ObserverSpec::Kind::kAges, kNoArg},
    {"coverage", ObserverSpec::Kind::kCoverage,
     CoverageObserver::kDefaultTarget},
    {"demography", ObserverSpec::Kind::kDemography,
     static_cast<double>(DemographyObserver::kDefaultWindow)},
};

const KnownObserver* find_observer(std::string_view name) {
  for (const KnownObserver& observer : kKnownObservers) {
    if (name == observer.name) return &observer;
  }
  return nullptr;
}

// Upper bounds on the integer arguments. Past them a spec would run for
// hours (or overflow the uint32_t the observer takes), so parse() rejects
// it instead. Each is far above any value the tree uses.
constexpr double kMaxSetsPerSize = 1024;           // 16x expansion(64)
constexpr double kMaxSpectralIterations = 100000;  // 200x the default
constexpr double kMaxDemographyWindow = 16777216;  // 2^24 rounds

/// Accepts an integer in [1, max]; otherwise stores a reason naming both
/// bounds and returns false.
bool integer_argument(double value, double max, const char* what,
                      std::string* error) {
  if (value >= 1.0 && value <= max && std::floor(value) == value) return true;
  const std::string got =
      std::abs(value) < 1e15 ? fmt_fixed(value, 3) : fmt_sci(value);
  return spec_fail(error, std::string(what) +
                              " must be an integer >= 1 and at most " +
                              fmt_int(static_cast<std::int64_t>(max)) +
                              " (got " + got + ")");
}

}  // namespace

bool ObserverSpec::is_known_name(std::string_view name) {
  return find_observer(lowercase_spec(name)) != nullptr;
}

std::string ObserverSpec::known_names() {
  return "expansion(k), spectral(i), isolated, degrees, ages, coverage(f), "
         "demography(w)";
}

std::vector<std::pair<std::string, std::string>> ObserverSpec::catalog() {
  return {
      {"expansion(k)",
       "vertex-expansion probe, k random sets per size (default 8, at most " +
           fmt_int(static_cast<std::int64_t>(kMaxSetsPerSize)) +
           ") -> expansion_min_ratio, expansion_argmin_size, "
           "expansion_sets_probed"},
      {"spectral(i)",
       "lazy-walk spectral gap, i power iterations (default 500, at most " +
           fmt_int(static_cast<std::int64_t>(kMaxSpectralIterations)) +
           ") -> spectral_gap, spectral_lambda2, spectral_converged"},
      {"isolated",
       "isolated-node census -> isolated_count, isolated_fraction"},
      {"degrees",
       "degree histogram -> degree_mean/min/max and p50/p90/p99"},
      {"ages", "node-age histogram -> age_mean, age_p50, age_p90, age_max"},
      {"coverage(f)",
       "dissemination coverage curve at target fraction f (default 0.5) -> "
       "coverage_step, coverage_final, coverage_auc"},
      {"demography(w)",
       "alive-count trajectory over a w-round window (default 64, at most " +
           fmt_int(static_cast<std::int64_t>(kMaxDemographyWindow)) +
           ") -> alive_mean, alive_min, alive_max"},
  };
}

std::string ObserverSpec::canonical() const {
  std::string out;
  for (const Call& call : calls) {
    if (!out.empty()) out += '+';
    switch (call.kind) {
      case Kind::kExpansion:
        out += "expansion(" + fmt_int(static_cast<std::int64_t>(call.a)) + ")";
        break;
      case Kind::kSpectral:
        out += static_cast<std::uint32_t>(call.a) ==
                       SpectralObserver::kDefaultIterations
                   ? "spectral"
                   : "spectral(" + fmt_int(static_cast<std::int64_t>(call.a)) +
                         ")";
        break;
      case Kind::kIsolated:
        out += "isolated";
        break;
      case Kind::kDegrees:
        out += "degrees";
        break;
      case Kind::kAges:
        out += "ages";
        break;
      case Kind::kCoverage:
        out += "coverage(" + fmt_spec_arg(call.a) + ")";
        break;
      case Kind::kDemography:
        out += "demography(" + fmt_int(static_cast<std::int64_t>(call.a)) +
               ")";
        break;
    }
  }
  return out;
}

std::optional<ObserverSpec> ObserverSpec::parse(std::string_view text,
                                                std::string* error) {
  ObserverSpec spec;
  if (trim_spec(text).empty()) return spec;  // the empty observer set

  for (const std::string_view segment : split_spec_segments(text)) {
    SpecCall call;
    if (!split_spec_call(segment, "observer spec", &call, error)) {
      return std::nullopt;
    }
    const KnownObserver* known = find_observer(call.name);
    if (known == nullptr) {
      spec_fail(error, "unknown observer '" + call.name +
                           "'; known: " + known_names());
      return std::nullopt;
    }
    const bool takes_arg = !std::isnan(known->default_arg);
    if (call.args.size() > (takes_arg ? 1u : 0u)) {
      spec_fail(error, "observer spec '" + std::string(trim_spec(segment)) +
                           "': at most " +
                           std::to_string(takes_arg ? 1 : 0) +
                           " argument(s) allowed");
      return std::nullopt;
    }
    Call parsed;
    parsed.kind = known->kind;
    parsed.a = call.args.empty() ? known->default_arg : call.args[0];
    switch (known->kind) {
      case Kind::kExpansion:
        if (!integer_argument(parsed.a, kMaxSetsPerSize,
                              "expansion sets-per-size", error)) {
          return std::nullopt;
        }
        break;
      case Kind::kSpectral:
        if (!integer_argument(parsed.a, kMaxSpectralIterations,
                              "spectral iteration count", error)) {
          return std::nullopt;
        }
        break;
      case Kind::kCoverage:
        if (!(parsed.a > 0.0) || parsed.a > 1.0) {  // negated: rejects NaN
          spec_fail(error, "coverage target fraction must be in (0, 1] (got " +
                               fmt_fixed(parsed.a, 3) + ")");
          return std::nullopt;
        }
        break;
      case Kind::kDemography:
        if (!integer_argument(parsed.a, kMaxDemographyWindow,
                              "demography window (rounds)", error)) {
          return std::nullopt;
        }
        break;
      case Kind::kIsolated:
      case Kind::kDegrees:
      case Kind::kAges:
        parsed.a = 0.0;
        break;
    }
    for (const Call& existing : spec.calls) {
      if (existing.kind == parsed.kind) {
        spec_fail(error, "observer '" + call.name +
                             "' appears twice; each family contributes its "
                             "metric columns at most once");
        return std::nullopt;
      }
    }
    spec.calls.push_back(parsed);
  }
  return spec;
}

std::vector<std::unique_ptr<MetricObserver>> make_observers(
    const ObserverSpec& spec) {
  std::vector<std::unique_ptr<MetricObserver>> observers;
  observers.reserve(spec.calls.size());
  for (const ObserverSpec::Call& call : spec.calls) {
    switch (call.kind) {
      case ObserverSpec::Kind::kExpansion: {
        ProbeOptions options;
        options.random_sets_per_size = static_cast<std::uint32_t>(call.a);
        observers.push_back(std::make_unique<ExpansionObserver>(options));
        break;
      }
      case ObserverSpec::Kind::kSpectral:
        observers.push_back(std::make_unique<SpectralObserver>(
            static_cast<std::uint32_t>(call.a)));
        break;
      case ObserverSpec::Kind::kIsolated:
        observers.push_back(std::make_unique<IsolatedObserver>());
        break;
      case ObserverSpec::Kind::kDegrees:
        observers.push_back(std::make_unique<DegreeHistogramObserver>());
        break;
      case ObserverSpec::Kind::kAges:
        observers.push_back(std::make_unique<AgeHistogramObserver>());
        break;
      case ObserverSpec::Kind::kCoverage:
        observers.push_back(std::make_unique<CoverageObserver>(call.a));
        break;
      case ObserverSpec::Kind::kDemography:
        observers.push_back(std::make_unique<DemographyObserver>(
            static_cast<std::uint32_t>(call.a)));
        break;
    }
  }
  return observers;
}

ObserverSet make_observer_set(const ObserverSpec& spec) {
  return ObserverSet(make_observers(spec));
}

}  // namespace churnet
