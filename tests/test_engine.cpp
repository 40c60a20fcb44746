// Tests for the experiment engine: scenario registry coverage and the
// TrialRunner's seeding, determinism-across-thread-counts, NaN handling and
// CSV/JSON sinks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

TEST(ScenarioRegistry, CoversPaperModelsAndBaselines) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  EXPECT_EQ(registry.scenarios().size(), 6u);
  for (const char* name :
       {"SDG", "SDGR", "PDG", "PDGR", "static-dout", "erdos-renyi"}) {
    const Scenario* scenario = registry.find(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name(), name);
  }
  EXPECT_EQ(registry.find("SDG")->policy(), EdgePolicy::kNone);
  EXPECT_EQ(registry.find("SDGR")->policy(), EdgePolicy::kRegenerate);
  EXPECT_EQ(registry.find("PDG")->model(), ModelKind::kPoisson);
  EXPECT_TRUE(registry.find("PDGR")->has_churn());
  EXPECT_FALSE(registry.find("static-dout")->has_churn());
  // Lookup is case-insensitive; unknown names return nullptr.
  EXPECT_NE(registry.find("sdgr"), nullptr);
  EXPECT_EQ(registry.find("no-such-model"), nullptr);
}

TEST(ScenarioRegistry, MakeWarmedProducesExpectedSizes) {
  ScenarioParams params;
  params.n = 300;
  params.d = 6;
  params.seed = 9;

  AnyNetwork sdg = ScenarioRegistry::paper().at("SDG").make_warmed(params);
  EXPECT_EQ(sdg.graph().alive_count(), 300u);

  AnyNetwork pdgr = ScenarioRegistry::paper().at("PDGR").make_warmed(params);
  const double size = pdgr.graph().alive_count();
  EXPECT_GT(size, 150.0);  // stationary around n = 300
  EXPECT_LT(size, 600.0);

  AnyNetwork dout =
      ScenarioRegistry::paper().at("static-dout").make_warmed(params);
  EXPECT_EQ(dout.graph().alive_count(), 300u);
  EXPECT_EQ(dout.graph().edge_count(), 300u * 6u);

  AnyNetwork er =
      ScenarioRegistry::paper().at("erdos-renyi").make_warmed(params);
  EXPECT_EQ(er.graph().alive_count(), 300u);
  // ~n*d edges expected (p = 2d/n over n(n-1)/2 pairs); allow wide slack.
  EXPECT_GT(er.graph().edge_count(), 300u * 3u);
  EXPECT_LT(er.graph().edge_count(), 300u * 12u);
}

TEST(ScenarioRegistry, SameSeedSameNetworkThroughAnyNetwork) {
  ScenarioParams params;
  params.n = 200;
  params.d = 8;
  params.seed = 77;
  const Scenario& scenario = ScenarioRegistry::paper().at("SDGR");

  AnyNetwork a = scenario.make_warmed(params);
  AnyNetwork b = scenario.make_warmed(params);
  const FloodTrace ta = a.flood();
  const FloodTrace tb = b.flood();
  EXPECT_EQ(ta.informed_per_step, tb.informed_per_step);
  EXPECT_EQ(ta.completion_step, tb.completion_step);

  // ... and matches the typed pathway at the same seed.
  StreamingConfig config;
  config.n = 200;
  config.d = 8;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 77;
  StreamingNetwork typed(config);
  typed.warm_up();
  const FloodTrace tt = flood_dynamic(typed);
  EXPECT_EQ(ta.informed_per_step, tt.informed_per_step);
  EXPECT_EQ(ta.completion_step, tt.completion_step);
}

TEST(ScenarioRegistry, FindIsCaseInsensitiveOnEveryName) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  for (const char* name :
       {"sdg", "SdGr", "pdg", "pdgr", "STATIC-DOUT", "Erdos-Renyi"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("sdg x"), nullptr);  // length must match too
}

TEST(ScenarioRegistry, AddReplacesOnReAddCaseInsensitively) {
  ScenarioRegistry registry;
  registry.add(Scenario("demo", ModelKind::kStreaming, EdgePolicy::kNone,
                        "first"));
  registry.add(Scenario("extra", ModelKind::kPoisson, EdgePolicy::kNone,
                        "other"));
  ASSERT_EQ(registry.scenarios().size(), 2u);
  // Re-adding under a different case replaces in place, preserving order.
  registry.add(Scenario("DEMO", ModelKind::kPoisson,
                        EdgePolicy::kRegenerate, "second"));
  ASSERT_EQ(registry.scenarios().size(), 2u);
  EXPECT_EQ(registry.scenarios()[0].name(), "DEMO");
  EXPECT_EQ(registry.scenarios()[0].description(), "second");
  EXPECT_EQ(registry.find("demo")->model(), ModelKind::kPoisson);
  EXPECT_EQ(registry.find("demo")->policy(), EdgePolicy::kRegenerate);
}

TEST(ScenarioRegistryDeathTest, AtAbortsListingKnownNames) {
  // at() is the CLI lookup: unknown names must die and name every known
  // scenario so typos in sweeps are self-diagnosing.
  EXPECT_DEATH(ScenarioRegistry::paper().at("no-such-model"),
               "unknown scenario 'no-such-model'.*SDG.*SDGR.*PDG.*PDGR"
               ".*static-dout.*erdos-renyi");
}

TEST(ScenarioRegistryDeathTest, MalformedChurnSpecsDieWithReasons) {
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("PDGR+zipf(1.1)"),
               "unknown churn regime 'zipf'");
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("PDGR+pareto(1.0)"),
               "must be > 1");
  // Streaming bases take only the stream schedule.
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("SDGR+pareto(2.5)"),
               "streaming models take only");
  // Static baselines take no churn spec at all.
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("static-dout+poisson"),
               "no churn spec");
  // Params-level overrides go through the same validation.
  ScenarioParams params;
  params.n = 50;
  params.churn = "pareto(0.5)";
  EXPECT_DEATH(ScenarioRegistry::paper().at("PDGR").make(params),
               "must be > 1");
  // A scenario constructed directly with an incompatible (model, spec)
  // pair dies at build time instead of silently running the wrong churn.
  const Scenario mislabeled("bad", ModelKind::kStreaming, EdgePolicy::kNone,
                            *ChurnSpec::parse("pareto(2.5)"), "mislabeled");
  ScenarioParams plain;
  plain.n = 50;
  EXPECT_DEATH(mislabeled.make(plain), "streaming models take only");
}

TEST(ScenarioRegistry, ResolveBuildsChurnComposites) {
  const Scenario composite =
      ScenarioRegistry::paper().resolve("PDGR+pareto(2.5)");
  EXPECT_EQ(composite.name(), "PDGR+pareto(2.50)");
  EXPECT_EQ(composite.model(), ModelKind::kPoisson);
  EXPECT_EQ(composite.policy(), EdgePolicy::kRegenerate);
  EXPECT_EQ(composite.churn().kind, ChurnSpec::Kind::kPareto);
  // Plain names resolve to the registered scenario unchanged.
  EXPECT_EQ(ScenarioRegistry::paper().resolve("sdgr").name(), "SDGR");

  ScenarioParams params;
  params.n = 200;
  params.d = 4;
  params.seed = 5;
  AnyNetwork net = composite.make_warmed(params);
  EXPECT_GT(net.graph().alive_count(), 100u);
}

TEST(ScenarioRegistry, ChurnOverrideInParamsMatchesComposite) {
  // params.churn = "X" on base PDGR must behave exactly like "PDGR+X".
  ScenarioParams base;
  base.n = 150;
  base.d = 6;
  base.seed = 41;
  ScenarioParams overridden = base;
  overridden.churn = "weibull(0.7)";

  AnyNetwork via_params =
      ScenarioRegistry::paper().at("PDGR").make_warmed(overridden);
  AnyNetwork via_name =
      ScenarioRegistry::paper().resolve("PDGR+weibull(0.7)").make_warmed(
          base);
  const FloodTrace a = via_params.flood();
  const FloodTrace b = via_name.flood();
  EXPECT_EQ(a.informed_per_step, b.informed_per_step);
  EXPECT_EQ(a.completion_step, b.completion_step);
}

TEST(ScenarioRegistry, ExtendedRegistryRegistersNewRegimes) {
  const ScenarioRegistry& extended = ScenarioRegistry::extended();
  // Everything in paper() is still there, untouched.
  EXPECT_GE(extended.scenarios().size(),
            ScenarioRegistry::paper().scenarios().size() + 3u);
  for (const char* name :
       {"PDGR+pareto(2.50)", "PDGR+weibull(0.70)", "PDGR+bursty(4.00,0.50)",
        "PDGR+drift(2.00)", "PDGR+drift(0.50)"}) {
    const Scenario* scenario = extended.find(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->model(), ModelKind::kPoisson);
  }
  // paper() itself stays pristine: exactly the six seed scenarios.
  EXPECT_EQ(ScenarioRegistry::paper().scenarios().size(), 6u);
}

TEST(TrialRunner, RoutesSeedsThroughDeriveSeed) {
  TrialRunnerOptions options;
  options.replications = 6;
  options.base_seed = 111;
  options.stream = 42;
  std::vector<std::uint64_t> seen_seeds(6, 0);
  TrialRunner(options).run("seed_lo", [&](const TrialContext& ctx) {
    seen_seeds[ctx.replication] = ctx.seed;
    return static_cast<double>(ctx.seed & 0xFFFF);
  });
  std::set<std::uint64_t> distinct;
  for (std::uint64_t rep = 0; rep < 6; ++rep) {
    EXPECT_EQ(seen_seeds[rep], derive_seed(111, 42, rep)) << rep;
    distinct.insert(seen_seeds[rep]);
  }
  EXPECT_EQ(distinct.size(), 6u);  // base seed never reused across reps
}

TEST(TrialRunner, DeterministicAcrossThreadCounts) {
  // A real simulation workload: flooding completion on SDGR, all
  // randomness derived from ctx.seed.
  const auto body = [](const TrialContext& ctx) {
    ScenarioParams params;
    params.n = 200;
    params.d = 21;
    params.seed = ctx.seed;
    AnyNetwork net =
        ScenarioRegistry::paper().at("SDGR").make_warmed(params);
    ProtocolScratch scratch;
    const FloodTrace trace = net.flood({}, scratch);
    return std::vector<double>{
        trace.completed ? static_cast<double>(trace.completion_step)
                        : std::nan(""),
        static_cast<double>(trace.peak_informed)};
  };

  TrialRunnerOptions serial;
  serial.replications = 12;
  serial.threads = 1;
  serial.base_seed = 2024;
  serial.stream = 7;
  TrialRunnerOptions parallel = serial;
  parallel.threads = 4;

  const TrialResult a =
      TrialRunner(serial).run({"completion", "peak"}, body);
  const TrialResult b =
      TrialRunner(parallel).run({"completion", "peak"}, body);

  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t r = 0; r < a.samples().size(); ++r) {
    ASSERT_EQ(a.samples()[r].size(), b.samples()[r].size());
    for (std::size_t m = 0; m < a.samples()[r].size(); ++m) {
      const double x = a.samples()[r][m];
      const double y = b.samples()[r][m];
      if (std::isnan(x)) {
        EXPECT_TRUE(std::isnan(y));
      } else {
        EXPECT_EQ(x, y) << "rep " << r << " metric " << m;
      }
    }
  }
  for (const char* metric : {"completion", "peak"}) {
    EXPECT_EQ(a.stats(metric).count(), b.stats(metric).count());
    EXPECT_DOUBLE_EQ(a.stats(metric).mean(), b.stats(metric).mean());
    EXPECT_DOUBLE_EQ(a.stats(metric).stddev(), b.stats(metric).stddev());
  }
  EXPECT_EQ(b.threads_used(), 4u);
}

TEST(TrialRunner, NanSamplesAreExcludedFromStatsButKeptInSamples) {
  TrialRunnerOptions options;
  options.replications = 10;
  const TrialResult result =
      TrialRunner(options).run("even_only", [](const TrialContext& ctx) {
        return ctx.replication % 2 == 0
                   ? static_cast<double>(ctx.replication)
                   : std::nan("");
      });
  EXPECT_EQ(result.stats("even_only").count(), 5u);
  EXPECT_DOUBLE_EQ(result.stats("even_only").mean(), 4.0);  // 0,2,4,6,8
  EXPECT_EQ(result.samples().size(), 10u);
  EXPECT_TRUE(std::isnan(result.samples()[1][0]));
}

TEST(TrialRunner, BodyExceptionsPropagate) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    TrialRunnerOptions options;
    options.replications = 4;
    options.threads = threads;
    std::atomic<int> calls{0};
    EXPECT_THROW(
        TrialRunner(options).run("boom",
                                 [&calls](const TrialContext& ctx) -> double {
                                   ++calls;
                                   if (ctx.replication == 2) {
                                     throw std::runtime_error("boom");
                                   }
                                   return 0.0;
                                 }),
        std::runtime_error)
        << threads << " threads";
    // Inline at width 1: replications run in order, and none starts after
    // replication 2 threw.
    if (threads == 1) {
      EXPECT_EQ(calls.load(), 3);
    }
  }
}

TEST(TrialRunner, ToTableHasOneRowPerMetric) {
  TrialRunnerOptions options;
  options.replications = 3;
  const TrialResult result = TrialRunner(options).run(
      {"x", "y"}, [](const TrialContext& ctx) {
        return std::vector<double>{static_cast<double>(ctx.replication),
                                   ctx.replication == 1
                                       ? std::nan("")
                                       : 10.0};
      });

  Table table = result.to_table();
  EXPECT_EQ(table.row_count(), 2u);
}

}  // namespace
}  // namespace churnet
