// Tests for the experiment engine: scenario registry coverage and
// resolution, and the job pool's width rule and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

TEST(ScenarioRegistry, TryResolveReturnsReasons) {
  // The non-aborting twin of resolve(): a bad name comes back as nullopt
  // with the reason resolve() would die with.
  const ScenarioRegistry& registry = ScenarioRegistry::extended();
  const std::pair<const char*, const char*> cases[] = {
      {"PDGR+pareto(", "scenario 'PDGR+pareto(': churn spec 'pareto(': "
                       "missing closing ')'"},
      {"FOO", "unknown scenario 'FOO'; known scenarios: SDG SDGR PDG PDGR"},
      {"PDGR+bogus(1)",
       "scenario 'PDGR+bogus(1)': unknown churn regime 'bogus'"},
      {"SDG+pareto(2.5)", "scenario 'SDG': streaming models take only"},
      {"SDGR+massfail(0.1,1)", "scenario 'SDGR': streaming models take only"},
  };
  for (const auto& [name, reason] : cases) {
    std::string error;
    EXPECT_FALSE(registry.try_resolve(name, &error).has_value()) << name;
    EXPECT_EQ(error.find(reason), 0u) << name << ": " << error;
  }
  EXPECT_FALSE(registry.try_resolve("FOO").has_value());  // error optional
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

TEST(JobPool, WidthIsMinOfThreadsAndJobs) {
  EXPECT_EQ(pool_width(4, 10), 4u);
  EXPECT_EQ(pool_width(4, 3), 3u);
  EXPECT_EQ(pool_width(1, 10), 1u);
  EXPECT_EQ(pool_width(4, 0), 1u);  // never narrower than one worker
  // threads 0 = one per hardware thread, still capped by the job count.
  EXPECT_EQ(pool_width(0, 1u << 20),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(pool_width(0, 1), 1u);
}

TEST(JobPool, BodyExceptionsPropagate) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    std::atomic<int> calls{0};
    EXPECT_THROW(run_jobs(
                     4, threads,
                     [&calls](std::uint64_t job) {
                       ++calls;
                       if (job == 2) throw std::runtime_error("boom");
                       return std::vector<double>{0.0};
                     },
                     [](std::uint64_t, std::vector<double>&&) {}),
                 std::runtime_error)
        << threads << " threads";
    // Inline at width 1: jobs run in order, and none starts after job 2
    // threw.
    if (threads == 1) {
      EXPECT_EQ(calls.load(), 3);
    }
  }
}

TEST(JobPool, CompletionHookExceptionsPropagate) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    std::atomic<int> calls{0};
    std::vector<std::uint64_t> completed;  // the hook runs under one mutex
    EXPECT_THROW(run_jobs(
                     4, threads,
                     [&calls](std::uint64_t job) {
                       ++calls;
                       return std::vector<double>{static_cast<double>(job)};
                     },
                     [&completed](std::uint64_t job, std::vector<double>&&) {
                       if (job == 1) throw std::runtime_error("hook");
                       completed.push_back(job);
                     }),
                 std::runtime_error)
        << threads << " threads";
    // Inline at width 1: job 1's hook throws, so job 2 never starts.
    if (threads == 1) {
      EXPECT_EQ(calls.load(), 2);
      EXPECT_EQ(completed, std::vector<std::uint64_t>{0});
    }
  }
}

}  // namespace
}  // namespace churnet
