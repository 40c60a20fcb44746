// Tests for the extended churn regimes (churn/lifetime_churn.hpp,
// churn/phased_churn.hpp) and the churn-spec grammar
// (churn/churn_spec.hpp): spec parsing accepts the documented forms and
// rejects malformed ones with clear reasons, and each regime's demography
// matches its configured law (statistical checks use fixed seeds with
// generous tolerances).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_spec.hpp"
#include "churn/lifetime_churn.hpp"
#include "churn/phased_churn.hpp"
#include "common/stats.hpp"
#include "models/poisson_network.hpp"

namespace churnet {
namespace {

// ---- spec parsing ----------------------------------------------------------

TEST(ChurnSpec, ParsesDocumentedForms) {
  EXPECT_EQ(ChurnSpec::parse("stream")->kind, ChurnSpec::Kind::kStream);
  EXPECT_EQ(ChurnSpec::parse("poisson")->kind, ChurnSpec::Kind::kJumpChain);

  const ChurnSpec pareto = *ChurnSpec::parse("pareto(2.5)");
  EXPECT_EQ(pareto.kind, ChurnSpec::Kind::kPareto);
  EXPECT_DOUBLE_EQ(pareto.a, 2.5);

  const ChurnSpec weibull = *ChurnSpec::parse("weibull(0.7)");
  EXPECT_EQ(weibull.kind, ChurnSpec::Kind::kWeibull);
  EXPECT_DOUBLE_EQ(weibull.a, 0.7);

  const ChurnSpec bursty = *ChurnSpec::parse("bursty(6,0.25)");
  EXPECT_EQ(bursty.kind, ChurnSpec::Kind::kBursty);
  EXPECT_DOUBLE_EQ(bursty.a, 6.0);
  EXPECT_DOUBLE_EQ(bursty.b, 0.25);

  const ChurnSpec drift = *ChurnSpec::parse("drift(0.5)");
  EXPECT_EQ(drift.kind, ChurnSpec::Kind::kDrift);
  EXPECT_DOUBLE_EQ(drift.a, 0.5);
}

TEST(ChurnSpec, CaseWhitespaceAndDefaults) {
  EXPECT_EQ(ChurnSpec::parse("  Pareto( 3.0 ) ")->kind,
            ChurnSpec::Kind::kPareto);
  EXPECT_EQ(ChurnSpec::parse("POISSON")->kind, ChurnSpec::Kind::kJumpChain);
  // Omitted arguments take the documented defaults.
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("pareto")->a, 2.5);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("weibull()")->a, 0.7);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("bursty")->a, 4.0);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("bursty(8)")->b, 0.5);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("drift")->a, 2.0);
}

TEST(ChurnSpec, CanonicalRoundTrips) {
  for (const char* text :
       {"stream", "poisson", "pareto(2.5)", "weibull(0.7)", "bursty(4,0.5)",
        "drift(2)", "bursty(4,0.125)", "pareto(2.501)"}) {
    const ChurnSpec spec = *ChurnSpec::parse(text);
    const std::optional<ChurnSpec> reparsed =
        ChurnSpec::parse(spec.canonical());
    ASSERT_TRUE(reparsed.has_value()) << spec.canonical();
    EXPECT_EQ(*reparsed, spec) << spec.canonical();
  }
  // Arguments that two decimals would round print in full, so distinct
  // specs never share a name.
  for (const auto& [text, neighbor] :
       {std::pair{"bursty(4,0.125)", "bursty(4,0.12)"},
        std::pair{"pareto(2.501)", "pareto(2.5)"}}) {
    EXPECT_NE(ChurnSpec::parse(text)->canonical(),
              ChurnSpec::parse(neighbor)->canonical())
        << text;
  }
  EXPECT_EQ(ChurnSpec::parse("bursty(4,0.125)")->canonical(),
            "bursty(4.00,0.125)");
}

TEST(ChurnSpec, RejectsMalformedSpecsWithClearErrors) {
  const auto error_of = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(ChurnSpec::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
  };
  EXPECT_NE(error_of("zipf(1.1)").find("unknown churn regime"),
            std::string::npos);
  EXPECT_NE(error_of("").find("empty"), std::string::npos);
  EXPECT_NE(error_of("pareto(2.5").find("missing closing"),
            std::string::npos);
  EXPECT_NE(error_of("pareto(two)").find("bad number"), std::string::npos);
  EXPECT_NE(error_of("pareto(2,3)").find("at most 1"), std::string::npos);
  EXPECT_NE(error_of("bursty(1,2,3)").find("at most 2"), std::string::npos);
  // Out-of-range parameters state the constraint.
  EXPECT_NE(error_of("pareto(1.0)").find("must be > 1"), std::string::npos);
  EXPECT_NE(error_of("weibull(0)").find("must be > 0"), std::string::npos);
  EXPECT_NE(error_of("bursty(0.5)").find("must be > 1"), std::string::npos);
  EXPECT_NE(error_of("drift(-2)").find("must be > 0"), std::string::npos);
  EXPECT_NE(error_of("pareto(,)").find("empty argument"), std::string::npos);
  // strtod parses "nan": the range checks must reject it too, or the
  // diagnostic degrades to an assertion deep inside the churn process.
  EXPECT_NE(error_of("pareto(nan)").find("must be > 1"), std::string::npos);
  EXPECT_NE(error_of("weibull(nan)").find("must be > 0"), std::string::npos);
  EXPECT_NE(error_of("bursty(nan)").find("must be > 1"), std::string::npos);
  EXPECT_NE(error_of("drift(nan)").find("must be > 0"), std::string::npos);
  // strtod parses "inf" too, and an infinite parameter would otherwise
  // pass the one-sided range checks and trip a sampler precondition.
  EXPECT_NE(error_of("pareto(inf)").find("must be finite"), std::string::npos);
  EXPECT_NE(error_of("bursty(inf,1)").find("must be finite"),
            std::string::npos);
  // Gamma(1 + 1/k) overflows for tiny shapes, so the mean-normalized
  // Weibull scale would be 0.
  EXPECT_NE(error_of("weibull(1e-300)").find("overflows"), std::string::npos);
  // A phase far below a lifetime would stall the sampler at its phase
  // boundaries; the bound is 0.01 lifetimes, and exactly 0.01 parses.
  EXPECT_NE(error_of("bursty(4,1e-300)")
                .find("bursty phase length must be at least 0.01 lifetimes"),
            std::string::npos);
  EXPECT_NE(error_of("bursty(4,0.0099)").find("at least 0.01"),
            std::string::npos);
  EXPECT_TRUE(ChurnSpec::parse("bursty(4,0.01)").has_value());
}

// ---- heavy-tailed lifetimes ------------------------------------------------

TEST(LifetimeChurn, ParetoSamplerMatchesConfiguredMean) {
  // Uncensored check of the sampler itself: mean lifetime must be 1/mu.
  constexpr double kMu = 1.0 / 500.0;
  LifetimeChurn churn(LifetimeLaw{LifetimeLaw::Kind::kPareto, 2.5}, 1.0, kMu,
                      11);
  OnlineStats samples;
  for (int i = 0; i < 200000; ++i) samples.add(churn.sample_lifetime());
  EXPECT_NEAR(samples.mean(), 500.0, 0.05 * 500.0);
  // Support: every draw is >= xmin = (alpha-1)/(alpha*mu) = 300.
  EXPECT_GE(samples.min(), 300.0);
  // Heavy tail: the max dwarfs the mean (Exp(mu) would cap out around
  // 500 * ln(200000) ~ 6100; Pareto(2.5) far exceeds it).
  EXPECT_GT(samples.max(), 5000.0);
}

TEST(LifetimeChurn, WeibullSamplerMatchesConfiguredMean) {
  constexpr double kMu = 1.0 / 400.0;
  LifetimeChurn churn(LifetimeLaw{LifetimeLaw::Kind::kWeibull, 0.7}, 1.0,
                      kMu, 12);
  OnlineStats samples;
  for (int i = 0; i < 200000; ++i) samples.add(churn.sample_lifetime());
  EXPECT_NEAR(samples.mean(), 400.0, 0.05 * 400.0);
  // Shape < 1 means overdispersion: stddev > mean.
  EXPECT_GT(samples.stddev(), samples.mean());
}

TEST(LifetimeChurn, EventStreamIsChronologicalAndKillsScheduledNodes) {
  LifetimeChurn churn(LifetimeLaw{LifetimeLaw::Kind::kPareto, 2.5}, 1.0,
                      1.0 / 50.0, 13);
  std::vector<NodeId> alive;
  std::uint32_t next_slot = 0;
  double last_time = 0.0;
  int deaths = 0;
  for (int i = 0; i < 20000; ++i) {
    const ChurnProcess::Step step = churn.next(alive.size());
    EXPECT_GE(step.time, last_time);
    last_time = step.time;
    if (step.is_birth) {
      const NodeId id{next_slot++, 0};
      alive.push_back(id);
      churn.on_birth(id, step.time);
    } else {
      // Every death names a currently alive node (kScheduled).
      ASSERT_EQ(step.victim, ChurnProcess::Victim::kScheduled);
      const auto it = std::find(alive.begin(), alive.end(), step.victim_id);
      ASSERT_NE(it, alive.end());
      alive.erase(it);
      churn.on_death(step.victim_id, step.time);
      ++deaths;
    }
  }
  EXPECT_GT(deaths, 1000);
}

TEST(LifetimeChurn, StationarySizeFollowsLittlesLaw) {
  // lambda * E[L] = n regardless of the lifetime shape.
  constexpr std::uint32_t kN = 800;
  for (const char* spec : {"pareto(2.5)", "weibull(0.7)"}) {
    PoissonConfig config = PoissonConfig::with_n(kN, 1, EdgePolicy::kNone, 14);
    config.churn = *ChurnSpec::parse(spec);
    PoissonNetwork net(config);
    net.warm_up(10.0);
    OnlineStats sizes;
    for (int i = 0; i < 200; ++i) {
      net.run_until(net.now() + kN / 20.0);
      sizes.add(static_cast<double>(net.graph().alive_count()));
    }
    EXPECT_NEAR(sizes.mean(), kN, 0.10 * kN) << spec;
  }
}

// ---- bursty on/off phases --------------------------------------------------

TEST(PhasedChurn, BurstyAlternatesDeathRates) {
  const double mu = 1.0 / 100.0;
  PhasedChurn churn = make_bursty_churn(4.0, 0.5, 1.0, mu, 15);
  EXPECT_EQ(churn.name(), "bursty(4.00,0.50)");
  // Drive the chain with a self-consistent population and record the
  // per-phase death fractions: bursts must kill much faster than calms.
  std::uint64_t alive = 100;
  std::uint64_t burst_deaths = 0, burst_events = 0;
  std::uint64_t calm_deaths = 0, calm_events = 0;
  for (int i = 0; i < 200000; ++i) {
    const bool burst_phase = churn.current_phase().mu > mu;
    const ChurnProcess::Step step = churn.next(alive);
    if (step.is_birth) {
      ++alive;
    } else {
      EXPECT_EQ(step.victim, ChurnProcess::Victim::kUniform);
      if (alive > 0) --alive;
    }
    (burst_phase ? burst_events : calm_events) += 1;
    if (!step.is_birth) (burst_phase ? burst_deaths : calm_deaths) += 1;
  }
  ASSERT_GT(burst_events, 10000u);
  ASSERT_GT(calm_events, 10000u);
  const double burst_fraction =
      static_cast<double>(burst_deaths) / static_cast<double>(burst_events);
  const double calm_fraction =
      static_cast<double>(calm_deaths) / static_cast<double>(calm_events);
  // Within a phase the death probability per event is N*mu/(1+N*mu); with
  // the population cycling around the phase equilibria the burst fraction
  // must clearly dominate.
  EXPECT_GT(burst_fraction, calm_fraction + 0.1);
}

TEST(PhasedChurnDeathTest, RejectsZeroDurationCyclingPhases) {
  // A cycling phase of zero length would live-lock next(); the
  // constructor must refuse it. (The terminal phase of a non-cycling
  // schedule is exempt — it never ends.)
  EXPECT_DEATH(PhasedChurn("x", {ChurnPhase{0.0, 1.0, 1.0}}, /*cycle=*/true,
                           1.0, 1),
               "duration");
}

TEST(PhasedChurn, BurstySizeOscillates) {
  constexpr std::uint32_t kN = 600;
  PoissonConfig config = PoissonConfig::with_n(kN, 1, EdgePolicy::kNone, 16);
  config.churn = *ChurnSpec::parse("bursty(4,0.5)");
  PoissonNetwork net(config);
  net.warm_up(10.0);
  double min_size = 1e18, max_size = 0.0;
  for (int i = 0; i < 400; ++i) {
    net.run_until(net.now() + kN / 40.0);  // 10 samples per phase
    const double size = static_cast<double>(net.graph().alive_count());
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  // Phases pull the size toward n/4 (burst) and 4n (calm), but the pulls
  // are asymmetric: the burst time constant 1/(4mu) is 16x shorter than
  // the calm one 4/mu, so bursts bite hard while half-lifetime calm
  // phases recover only partially. The cycle therefore oscillates well
  // below n with an unmistakable swing.
  EXPECT_LT(min_size, 0.45 * kN);
  EXPECT_GT(max_size, 0.60 * kN);
  EXPECT_GT(max_size / min_size, 1.5);
}

// ---- growth/decline drift --------------------------------------------------

TEST(PhasedChurn, DriftGrowsAfterWarmUp) {
  constexpr std::uint32_t kN = 500;
  PoissonConfig config = PoissonConfig::with_n(kN, 1, EdgePolicy::kNone, 17);
  config.churn = *ChurnSpec::parse("drift(2)");
  PoissonNetwork net(config);
  net.warm_up(10.0);  // exactly the schedule's stationary phase
  const double warmed = static_cast<double>(net.graph().alive_count());
  EXPECT_NEAR(warmed, kN, 0.15 * kN);  // still the paper's stationary size
  net.run_until(net.now() + 5.0 * kN);
  const double drifted = static_cast<double>(net.graph().alive_count());
  EXPECT_GT(drifted, 1.4 * kN);  // clearly growing toward 2n
  EXPECT_LT(drifted, 2.2 * kN);
}

TEST(PhasedChurn, DriftDeclinesBelowOne) {
  constexpr std::uint32_t kN = 500;
  PoissonConfig config = PoissonConfig::with_n(kN, 1, EdgePolicy::kNone, 18);
  config.churn = *ChurnSpec::parse("drift(0.5)");
  PoissonNetwork net(config);
  net.warm_up(10.0);
  net.run_until(net.now() + 5.0 * kN);
  const double drifted = static_cast<double>(net.graph().alive_count());
  EXPECT_LT(drifted, 0.8 * kN);  // draining toward n/2
  EXPECT_GT(drifted, 0.3 * kN);
}

// ---- regime processes carry their identity ---------------------------------

TEST(ChurnRegimes, ProcessNamesMatchCanonicalSpecs) {
  for (const char* text :
       {"poisson", "pareto(2.5)", "weibull(0.7)", "bursty(4,0.5)",
        "drift(2)"}) {
    const ChurnSpec spec = *ChurnSpec::parse(text);
    const auto process = make_churn_process(spec, 1.0, 1e-2, 1);
    ASSERT_NE(process, nullptr) << text;
    EXPECT_EQ(process->name(), spec.canonical()) << text;
    EXPECT_NEAR(process->mean_lifetime(), 100.0, 1e-9) << text;
  }
  EXPECT_EQ(make_churn_process(*ChurnSpec::parse("stream"), 1.0, 1e-2, 1),
            nullptr);
}

TEST(ChurnRegimes, DeterministicForSeed) {
  for (const char* text : {"pareto(2.5)", "bursty(4,0.5)", "drift(2)"}) {
    PoissonConfig config = PoissonConfig::with_n(300, 4, EdgePolicy::kRegenerate, 19);
    config.churn = *ChurnSpec::parse(text);
    PoissonNetwork a(config);
    PoissonNetwork b(config);
    a.run_events(3000);
    b.run_events(3000);
    EXPECT_DOUBLE_EQ(a.now(), b.now()) << text;
    EXPECT_EQ(a.graph().alive_count(), b.graph().alive_count()) << text;
    EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count()) << text;
  }
}

}  // namespace
}  // namespace churnet
