// Tests for the observation layer (src/observe/): observer-spec
// parse/error cases, golden metric values on tiny pinned-seed graphs
// cross-checked against direct probe_expansion / spectral_gap calls with
// the same seeds, the live-graph censuses against snapshot scans of the
// same instant, pipeline wiring, and sweep-with-observers determinism
// across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "churn/churn_spec.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_service.hpp"
#include "expansion/expansion.hpp"
#include "expansion/isolated.hpp"
#include "expansion/spectral.hpp"
#include "models/streaming_network.hpp"
#include "observe/observer_spec.hpp"
#include "observe/observers.hpp"
#include "observe/pipeline.hpp"
#include "protocols/protocol_spec.hpp"

namespace churnet {
namespace {

// ---- spec parsing ----------------------------------------------------------

TEST(ObserverSpec, ParsesCompositesAndDefaults) {
  std::string error;
  const auto spec =
      ObserverSpec::parse("expansion(64)+spectral+isolated", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->calls.size(), 3u);
  EXPECT_EQ(spec->calls[0].kind, ObserverSpec::Kind::kExpansion);
  EXPECT_EQ(spec->calls[0].a, 64.0);
  EXPECT_EQ(spec->calls[1].kind, ObserverSpec::Kind::kSpectral);
  EXPECT_EQ(spec->calls[1].a, 500.0);  // default iterations
  EXPECT_EQ(spec->calls[2].kind, ObserverSpec::Kind::kIsolated);
  EXPECT_EQ(spec->canonical(), "expansion(64)+spectral+isolated");

  // Bare names take their documented defaults.
  const auto defaults =
      ObserverSpec::parse("expansion+coverage+demography", &error);
  ASSERT_TRUE(defaults.has_value()) << error;
  EXPECT_EQ(defaults->calls[0].a, 8.0);
  EXPECT_EQ(defaults->calls[1].a, CoverageObserver::kDefaultTarget);
  EXPECT_EQ(defaults->calls[2].a,
            static_cast<double>(DemographyObserver::kDefaultWindow));
  EXPECT_EQ(defaults->canonical(),
            "expansion(8)+coverage(0.50)+demography(64)");

  // Case/whitespace-insensitive, like the churn and protocol families.
  const auto spaced = ObserverSpec::parse("  Spectral + ISOLATED ", &error);
  ASSERT_TRUE(spaced.has_value()) << error;
  EXPECT_EQ(spaced->canonical(), "spectral+isolated");

  // A target two decimals would round prints in full, and the observer's
  // name is the canonical spelling.
  const auto fine = ObserverSpec::parse("coverage(0.999)", &error);
  ASSERT_TRUE(fine.has_value()) << error;
  EXPECT_EQ(fine->canonical(), "coverage(0.999)");
  EXPECT_EQ(ObserverSpec::parse(fine->canonical()), fine);
  EXPECT_EQ(make_observer_set(*fine).at(0).name(), fine->canonical());
  EXPECT_NE(fine->canonical(), ObserverSpec::parse("coverage(1)")->canonical());
}

TEST(ObserverSpec, EmptyTextIsTheEmptySet) {
  std::string error;
  const auto empty = ObserverSpec::parse("", &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->canonical(), "");
  EXPECT_TRUE(make_observer_set(*empty).empty());

  const auto blank = ObserverSpec::parse("   ", &error);
  ASSERT_TRUE(blank.has_value()) << error;
  EXPECT_TRUE(blank->empty());
}

TEST(ObserverSpec, RejectsMalformedSpecsWithReasons) {
  const auto error_of = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(ObserverSpec::parse(text, &error).has_value()) << text;
    return error;
  };
  EXPECT_NE(error_of("carrier-pigeon").find("unknown observer"),
            std::string::npos);
  // Unknown names cite the catalog.
  EXPECT_NE(error_of("carrier-pigeon").find("expansion(k)"),
            std::string::npos);
  EXPECT_NE(error_of("isolated(3)").find("at most 0 argument"),
            std::string::npos);
  EXPECT_NE(error_of("expansion(2,3)").find("at most 1 argument"),
            std::string::npos);
  EXPECT_NE(error_of("expansion(0)").find("integer >= 1"),
            std::string::npos);
  EXPECT_NE(error_of("expansion(2.5)").find("integer >= 1"),
            std::string::npos);
  EXPECT_NE(error_of("coverage(0)").find("(0, 1]"), std::string::npos);
  EXPECT_NE(error_of("coverage(1.5)").find("(0, 1]"), std::string::npos);
  EXPECT_NE(error_of("demography(0)").find("integer >= 1"),
            std::string::npos);
  EXPECT_NE(error_of("spectral(").find("missing"), std::string::npos);
  EXPECT_NE(error_of("isolated+isolated").find("appears twice"),
            std::string::npos);
  // Integer arguments are bounded, and the reason names the bound: past
  // it a probe would run for hours or overflow its uint32_t.
  EXPECT_NE(error_of("expansion(1000000000)").find("at most 1024"),
            std::string::npos);
  EXPECT_NE(error_of("expansion(1025)").find("at most 1024"),
            std::string::npos);
  EXPECT_NE(error_of("spectral(1e300)").find("at most 100000"),
            std::string::npos);
  EXPECT_NE(error_of("spectral(100001)").find("at most 100000"),
            std::string::npos);
  EXPECT_NE(error_of("demography(1000000000)").find("at most 16777216"),
            std::string::npos);
  EXPECT_NE(error_of("demography(16777217)").find("at most 16777216"),
            std::string::npos);
  for (const char* at_bound :
       {"expansion(1024)", "spectral(100000)", "demography(16777216)"}) {
    EXPECT_TRUE(ObserverSpec::parse(at_bound).has_value()) << at_bound;
  }
}

TEST(ObserverSpec, KnownNameDispatchAndMetricColumns) {
  EXPECT_TRUE(ObserverSpec::is_known_name("expansion"));
  EXPECT_TRUE(ObserverSpec::is_known_name("DEMOGRAPHY"));
  EXPECT_FALSE(ObserverSpec::is_known_name("pareto"));
  EXPECT_FALSE(ObserverSpec::is_known_name("push"));
  // Disjoint from the churn and protocol families (required for composite
  // segment dispatch to stay unambiguous, should the grammars ever meet).
  for (const auto& [spelling, description] : ObserverSpec::catalog()) {
    const std::string name = spelling.substr(0, spelling.find('('));
    EXPECT_FALSE(ChurnSpec::is_known_name(name)) << name;
    EXPECT_FALSE(ProtocolSpec::is_known_name(name)) << name;
  }

  const auto spec = ObserverSpec::parse("spectral+isolated+degrees");
  ASSERT_TRUE(spec.has_value());
  ObserverSet set = make_observer_set(*spec);
  EXPECT_EQ(set.metric_names(),
            (std::vector<std::string>{
                "spectral_gap", "spectral_lambda2", "spectral_converged",
                "isolated_count", "isolated_fraction", "degree_mean",
                "degree_min", "degree_max", "degree_p50", "degree_p90",
                "degree_p99"}));
  EXPECT_TRUE(set.wants_snapshot());
  EXPECT_FALSE(set.wants_dissemination());
  EXPECT_EQ(set.observation_rounds(), 0u);

  ObserverSet window_set =
      make_observer_set(*ObserverSpec::parse("demography(48)+coverage"));
  EXPECT_FALSE(window_set.wants_snapshot());
  EXPECT_TRUE(window_set.wants_dissemination());
  EXPECT_EQ(window_set.observation_rounds(), 48u);
}

// ---- golden values vs the pre-refactor measurement loops -------------------

Snapshot tiny_snapshot(std::uint32_t n, std::uint32_t d, EdgePolicy policy,
                       std::uint64_t seed) {
  StreamingConfig config;
  config.n = n;
  config.d = d;
  config.policy = policy;
  config.seed = seed;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(n);
  return net.snapshot();
}

TEST(Observers, ExpansionMatchesDirectProbeUnderSameSeed) {
  const Snapshot snap = tiny_snapshot(80, 3, EdgePolicy::kRegenerate, 4242);
  const std::uint64_t probe_seed = 99001;

  // The pre-port bench loop: a fresh Rng(seed) straight into the probe.
  Rng direct_rng(probe_seed);
  ProbeOptions options;
  options.random_sets_per_size = 16;
  const ProbeResult direct = probe_expansion(snap, direct_rng, options);

  ExpansionObserver observer(options);
  observer.begin_trial(probe_seed);
  observer.on_snapshot(snap);
  EXPECT_EQ(observer.last().min_ratio, direct.min_ratio);
  EXPECT_EQ(observer.last().argmin_size, direct.argmin_size);
  EXPECT_EQ(observer.last().argmin_family, direct.argmin_family);
  EXPECT_EQ(observer.last().sets_probed, direct.sets_probed);
  EXPECT_EQ(observer.name(), "expansion(16)");

  std::vector<double> values;
  observer.append_values(values);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], direct.min_ratio);
  EXPECT_EQ(values[1], static_cast<double>(direct.argmin_size));
  EXPECT_EQ(values[2], static_cast<double>(direct.sets_probed));

  // begin_trial fully resets: a second trial under the same seed is
  // bit-identical (instances are reused across replications).
  observer.begin_trial(probe_seed);
  observer.on_snapshot(snap);
  EXPECT_EQ(observer.last().min_ratio, direct.min_ratio);
  EXPECT_EQ(observer.last().sets_probed, direct.sets_probed);
}

TEST(Observers, SpectralMatchesDirectCallUnderSameSeed) {
  const Snapshot snap = tiny_snapshot(60, 4, EdgePolicy::kRegenerate, 777);
  const std::uint64_t power_seed = 55007;

  Rng direct_rng(power_seed);
  const SpectralResult direct = spectral_gap(snap, direct_rng, 300, 1e-6);

  SpectralObserver observer(300, 1e-6);
  observer.begin_trial(power_seed);
  observer.on_snapshot(snap);
  EXPECT_EQ(observer.last().lambda2, direct.lambda2);
  EXPECT_EQ(observer.last().spectral_gap, direct.spectral_gap);
  EXPECT_EQ(observer.last().iterations, direct.iterations);
  EXPECT_EQ(observer.last().converged, direct.converged);
  EXPECT_EQ(observer.name(), "spectral(300)");
  EXPECT_EQ(SpectralObserver().name(), "spectral");
}

// ---- the censuses against snapshot scans ------------------------------------

/// Nearest-rank quantile over a sorted, non-empty vector.
template <typename T>
double nearest_rank(const std::vector<T>& sorted, double p) {
  const std::size_t n = sorted.size();
  const auto index =
      static_cast<std::size_t>(p * static_cast<double>(n - 1) + 0.5);
  return static_cast<double>(sorted[std::min(index, n - 1)]);
}

/// The isolated, degrees and ages columns, computed from a snapshot: the
/// isolated_census, the sorted snapshot degrees (sum / n mean and
/// nearest-rank quantiles) and the snapshot ages summed in index order.
std::vector<double> census_columns(const Snapshot& snap) {
  const IsolatedCensus census = isolated_census(snap);
  std::vector<double> want = {static_cast<double>(census.isolated_nodes),
                              census.fraction};
  const std::uint32_t n = snap.node_count();
  std::vector<std::uint32_t> degrees;
  std::vector<double> ages;
  std::uint64_t degree_sum = 0;
  double age_sum = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    degrees.push_back(snap.degree(v));
    degree_sum += snap.degree(v);
    ages.push_back(snap.age(v));
    age_sum += snap.age(v);
  }
  std::sort(degrees.begin(), degrees.end());
  std::sort(ages.begin(), ages.end());
  const auto count = static_cast<double>(n);
  want.insert(want.end(),
              {static_cast<double>(degree_sum) / count,
               static_cast<double>(degrees.front()),
               static_cast<double>(degrees.back()),
               nearest_rank(degrees, 0.50), nearest_rank(degrees, 0.90),
               nearest_rank(degrees, 0.99)});
  want.insert(want.end(), {age_sum / count, nearest_rank(ages, 0.50),
                           nearest_rank(ages, 0.90), ages.back()});
  return want;
}

TEST(Observers, CensusesMatchSnapshotScansAtEveryInstant) {
  struct Case {
    const char* scenario;
    std::uint32_t d;
  };
  // Every paper model and both static baselines, plus d = 1 without
  // regeneration, where isolated nodes occur (Lemmas 3.5 / 4.10).
  const Case cases[] = {{"SDG", 4},  {"SDGR", 4},        {"PDG", 4},
                        {"PDGR", 4}, {"static-dout", 4}, {"erdos-renyi", 4},
                        {"SDG", 1},  {"PDG", 1}};
  const auto spec = ObserverSpec::parse("isolated+degrees+ages");
  ASSERT_TRUE(spec.has_value());
  for (const Case& c : cases) {
    ScenarioParams params;
    params.n = 300;
    params.d = c.d;
    params.seed = 424242;
    AnyNetwork net =
        ScenarioRegistry::extended().resolve(c.scenario).make_warmed(params);
    ObserverSet set = make_observer_set(*spec);
    std::uint64_t isolated_seen = 0;
    for (int instant = 0; instant < 4; ++instant) {
      for (int round = 0; round < 5; ++round) net.step();
      const std::string context = std::string(c.scenario) + " d=" +
                                  std::to_string(c.d) + " instant " +
                                  std::to_string(instant);
      set.begin_trial(1234);
      // The censuses read the live graph: no snapshot is captured.
      EXPECT_EQ(set.observe(net.graph(), net.now()), nullptr) << context;
      std::vector<double> got;
      set.append_values(got);
      const std::vector<double> want =
          census_columns(Snapshot::capture(net.graph(), net.now()));
      ASSERT_EQ(got.size(), want.size()) << context;
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Exact, doubles included.
        EXPECT_EQ(got[i], want[i]) << context << " column " << i;
      }
      isolated_seen += static_cast<std::uint64_t>(want[0]);
    }
    if (c.d == 1) EXPECT_GT(isolated_seen, 0u) << c.scenario;
  }
}

TEST(Observers, UnobservedMetricsAreNaN) {
  CoverageObserver coverage;
  coverage.begin_trial(1);
  std::vector<double> values;
  coverage.append_values(values);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_TRUE(std::isnan(values[0]));
  EXPECT_TRUE(std::isnan(values[1]));
  EXPECT_TRUE(std::isnan(values[2]));

  ExpansionObserver expansion;
  expansion.begin_trial(1);
  values.clear();
  expansion.append_values(values);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_TRUE(std::isnan(values[0]));
}

// ---- the pipeline driver ---------------------------------------------------

TEST(Pipeline, ObserveNetworkRunsWindowSnapshotAndFlood) {
  const Scenario& scenario = ScenarioRegistry::paper().at("SDGR");
  ScenarioParams params;
  params.n = 150;
  params.d = 4;
  params.seed = 31337;
  AnyNetwork net = scenario.make_warmed(params);

  ObserverSet set = make_observer_set(
      *ObserverSpec::parse("isolated+demography(32)+coverage(0.5)"));
  FloodProtocol flood;
  ProtocolScratch scratch;
  const std::vector<double> values = observe_protocol(
      net, set, /*seed=*/555, flood, ProtocolOptions{}, scratch);
  ASSERT_EQ(values.size(), set.metric_names().size());
  // isolated_count/fraction observed (SDGR: no isolation).
  EXPECT_EQ(values[0], 0.0);
  EXPECT_EQ(values[1], 0.0);
  // demography saw exactly its 32-round window on a size-n FIFO network.
  EXPECT_EQ(values[2], 150.0);  // alive_mean
  EXPECT_EQ(values[3], 150.0);  // alive_min
  EXPECT_EQ(values[4], 150.0);  // alive_max
  // coverage columns observed: SDGR floods complete, so the 50% step
  // exists and the final fraction is ~1.
  EXPECT_FALSE(std::isnan(values[5]));
  EXPECT_GT(values[6], 0.9);
  EXPECT_GT(values[7], 0.0);

  // observe_network (no dissemination): coverage columns are NaN, the
  // snapshot columns are unchanged.
  AnyNetwork net2 = scenario.make_warmed(params);
  const std::vector<double> plain = observe_network(net2, set, 555);
  ASSERT_EQ(plain.size(), values.size());
  EXPECT_EQ(plain[0], 0.0);
  EXPECT_TRUE(std::isnan(plain[5]));
  EXPECT_TRUE(std::isnan(plain[6]));
}

// ---- sweeps with observers -------------------------------------------------

SweepSpec observer_sweep_spec() {
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDG"};
  spec.n_values = {150};
  spec.d_values = {3};
  spec.metrics = {"alive", "final_fraction"};
  spec.observers = "isolated+degrees+coverage(0.5)+demography(24)";
  spec.replications = 3;
  spec.base_seed = 90210;
  return spec;
}

TEST(SweepWithObservers, AppendsObserverColumnsAfterSpecMetrics) {
  const SweepResult result =
      SweepService(observer_sweep_spec(), {.threads = 1}).run();
  const std::vector<std::string>& metrics = result.metrics();
  ASSERT_EQ(metrics.size(), 2u + 2u + 6u + 3u + 3u);
  EXPECT_EQ(metrics[0], "alive");
  EXPECT_EQ(metrics[1], "final_fraction");
  EXPECT_EQ(metrics[2], "isolated_count");
  EXPECT_EQ(metrics.back(), "alive_max");
  for (std::size_t c = 0; c < result.cells().size(); ++c) {
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      EXPECT_GT(result.stats(c, m).count(), 0u)
          << result.cells()[c].scenario << " " << metrics[m];
    }
  }
}

TEST(SweepWithObservers, BitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = observer_sweep_spec();
  const SweepResult t1 = SweepService(spec, {.threads = 1}).run();
  const SweepResult t8 = SweepService(spec, {.threads = 8}).run();

  std::ostringstream csv1, csv8, json1, json8;
  t1.write_csv(csv1);
  t8.write_csv(csv8);
  t1.write_json(json1);
  t8.write_json(json8);
  EXPECT_EQ(csv1.str(), csv8.str());
  // The JSON sink carries no wall-clock or thread-count fields, so it is
  // byte-identical across thread counts too.
  EXPECT_EQ(json1.str(), json8.str());
  ASSERT_EQ(t1.samples().size(), t8.samples().size());
  for (std::size_t c = 0; c < t1.samples().size(); ++c) {
    for (std::size_t r = 0; r < t1.samples()[c].size(); ++r) {
      for (std::size_t m = 0; m < t1.samples()[c][r].size(); ++m) {
        const double a = t1.samples()[c][r][m];
        const double b = t8.samples()[c][r][m];
        EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
            << c << "/" << r << "/" << m;
      }
    }
  }
}

TEST(SweepWithObservers, ObserversNeverPerturbExistingMetrics) {
  // The RNG-isolation rule, observable: attaching observers must not
  // change any previously measured sweep metric (observers draw from
  // their own streams and the observation window is 0 when no round
  // observer is attached).
  SweepSpec with = observer_sweep_spec();
  with.observers = "isolated+coverage(0.5)";  // no observation window
  SweepSpec without = with;
  without.observers.clear();

  const SweepResult a = SweepService(with, {.threads = 2}).run();
  const SweepResult b = SweepService(without, {.threads = 2}).run();
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (std::size_t c = 0; c < a.cells().size(); ++c) {
    for (std::size_t r = 0; r < a.spec().replications; ++r) {
      for (std::size_t m = 0; m < b.metrics().size(); ++m) {
        const double va = a.samples()[c][r][m];
        const double vb = b.samples()[c][r][m];
        EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)))
            << a.cells()[c].scenario << " " << b.metrics()[m];
      }
    }
  }
}

TEST(SweepWithObservers, JsonConfigRoundTripsObservers) {
  std::string error;
  const auto spec = SweepSpec::from_json_text(
      R"({"scenarios": ["PDGR"], "n": [200], "d": [4],
          "observers": "expansion(4)+isolated"})",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->observers, "expansion(4)+isolated");

  const auto bad = SweepSpec::from_json_text(
      R"({"scenarios": ["PDGR"], "n": [200], "d": [4],
          "observers": "carrier-pigeon"})",
      &error);
  EXPECT_FALSE(bad.has_value());
  EXPECT_NE(error.find("unknown observer"), std::string::npos);

  const auto wrong_type = SweepSpec::from_json_text(
      R"({"scenarios": ["PDGR"], "n": [200], "d": [4],
          "observers": ["isolated"]})",
      &error);
  EXPECT_FALSE(wrong_type.has_value());
  EXPECT_NE(error.find("spec string"), std::string::npos);
}

}  // namespace
}  // namespace churnet
