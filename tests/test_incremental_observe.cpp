// The incremental-observation equivalence suite (DESIGN.md §6, decision
// 15): every delta-fed path is pinned against its from-scratch oracle.
//
//   * change-feed replay reconstructs the adjacency exactly, and
//     Snapshot::update is bit-identical to Snapshot::capture, across all
//     four paper scenarios and both static baselines;
//   * the census observers (isolated, degrees, ages) produce exactly the
//     from-scratch values at every observation of a multi-window trial;
//   * the expansion observer's first observation is bit-identical to the
//     from-scratch probe, and its persistent-set re-measurements match the
//     direct expansion_ratio oracle;
//   * warm-started spectral probes are cold-identical on first use,
//     deterministic, and pinned under a fixed iteration budget (the PR-6
//     convention: the serial/from-scratch path is the oracle);
//   * sweeps with incremental observers emit byte-identical CSV to the
//     from-scratch sweep, at 1 and at 8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep_service.hpp"
#include "expansion/expansion.hpp"
#include "expansion/spectral.hpp"
#include "graph/change_feed.hpp"
#include "graph/snapshot.hpp"
#include "observe/observer_spec.hpp"
#include "observe/observers.hpp"
#include "observe/pipeline.hpp"

namespace churnet {
namespace {

// The equivalence surface: every paper scenario plus both static baselines.
const char* const kAllScenarios[] = {"SDG",  "SDGR",        "PDG",
                                     "PDGR", "static-dout", "erdos-renyi"};

AnyNetwork warmed(const std::string& scenario, std::uint32_t n,
                  std::uint32_t d, std::uint64_t seed) {
  ScenarioParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  return ScenarioRegistry::extended().resolve(scenario).make_warmed(params);
}

void expect_snapshots_equal(const Snapshot& a, const Snapshot& b,
                            const std::string& context) {
  ASSERT_EQ(a.node_count(), b.node_count()) << context;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << context;
  EXPECT_EQ(a.time(), b.time()) << context;
  for (std::uint32_t i = 0; i < a.node_count(); ++i) {
    ASSERT_EQ(a.node_id(i), b.node_id(i)) << context << " index " << i;
    EXPECT_EQ(a.birth_seq(i), b.birth_seq(i)) << context << " index " << i;
    // Bit-exact, including the double-valued ages.
    EXPECT_EQ(a.age(i), b.age(i)) << context << " index " << i;
    const std::span<const std::uint32_t> na = a.neighbors(i);
    const std::span<const std::uint32_t> nb = b.neighbors(i);
    ASSERT_EQ(na.size(), nb.size()) << context << " index " << i;
    for (std::size_t j = 0; j < na.size(); ++j) {
      EXPECT_EQ(na[j], nb[j]) << context << " index " << i << " edge " << j;
    }
    EXPECT_EQ(a.index_of(a.node_id(i)), b.index_of(a.node_id(i)))
        << context << " index " << i;
  }
}

// ---- change-feed replay + snapshot reuse -----------------------------------

// A shadow adjacency built only from the delta stream: the replay oracle
// for the feed contract (graph/change_feed.hpp). Out-slot vectors mirror
// each alive node's out-edge array, kInvalidNode = dangling.
class FeedMirror {
 public:
  explicit FeedMirror(const DynamicGraph& graph) {
    for (const NodeId id : graph.alive_nodes()) {
      std::vector<NodeId>& slots = out_[id];
      slots.resize(graph.out_slot_count(id), kInvalidNode);
      for (std::uint32_t i = 0; i < slots.size(); ++i) {
        slots[i] = graph.out_target(id, i);
      }
    }
  }

  void replay(std::span<const GraphDelta> deltas) {
    for (const GraphDelta& delta : deltas) {
      switch (delta.kind) {
        case GraphDelta::Kind::kBirth: {
          ASSERT_EQ(out_.count(delta.node), 0u);
          out_[delta.node].assign(delta.index, kInvalidNode);
          break;
        }
        case GraphDelta::Kind::kDeath: {
          const auto it = out_.find(delta.node);
          ASSERT_NE(it, out_.end());
          // Contract: a dying node's edge clears precede its kDeath.
          for (const NodeId target : it->second) {
            ASSERT_EQ(target, kInvalidNode);
          }
          out_.erase(it);
          break;
        }
        case GraphDelta::Kind::kEdgeSet: {
          std::vector<NodeId>& slots = out_.at(delta.node);
          ASSERT_LT(delta.index, slots.size());
          ASSERT_EQ(slots[delta.index], kInvalidNode);
          slots[delta.index] = delta.target;
          break;
        }
        case GraphDelta::Kind::kEdgeClear: {
          std::vector<NodeId>& slots = out_.at(delta.node);
          ASSERT_LT(delta.index, slots.size());
          ASSERT_EQ(slots[delta.index], delta.target);
          slots[delta.index] = kInvalidNode;
          break;
        }
      }
    }
  }

  void expect_matches(const DynamicGraph& graph,
                      const std::string& context) const {
    ASSERT_EQ(out_.size(), graph.alive_count()) << context;
    for (const auto& [id, slots] : out_) {
      ASSERT_TRUE(graph.is_alive(id)) << context;
      ASSERT_EQ(slots.size(), graph.out_slot_count(id)) << context;
      for (std::uint32_t i = 0; i < slots.size(); ++i) {
        EXPECT_EQ(slots[i], graph.out_target(id, i))
            << context << " slot " << i;
      }
    }
  }

 private:
  std::unordered_map<NodeId, std::vector<NodeId>> out_;
};

TEST(IncrementalObserve, FeedReplayAndSnapshotUpdateMatchEveryScenario) {
  for (const char* scenario : kAllScenarios) {
    AnyNetwork net = warmed(scenario, 300, 4, 90125);
    ChangeFeed feed;
    net.attach_change_feed(&feed);

    FeedMirror mirror(net.graph());
    Snapshot incremental = Snapshot::capture(net.graph(), net.now());
    SnapshotScratch scratch;

    for (int round = 0; round < 24; ++round) {
      feed.clear();
      net.step();
      const std::string context =
          std::string(scenario) + " round " + std::to_string(round);
      mirror.replay(feed.deltas());
      mirror.expect_matches(net.graph(), context);
      // Updating from the whole feed (not just births) must be fine — the
      // contract says non-birth entries are ignored by Snapshot::update.
      Snapshot::update(net.graph(), feed.deltas(), net.now(), incremental,
                       scratch);
      expect_snapshots_equal(incremental,
                             Snapshot::capture(net.graph(), net.now()),
                             context);
    }
    net.attach_change_feed(nullptr);
  }
}

TEST(IncrementalObserve, SnapshotUpdateAcceptsMultiRoundDeltaWindows) {
  // ObserverSet banks several rounds of births between observations; the
  // update must land on capture's exact state for multi-round windows too.
  AnyNetwork net = warmed("PDGR", 400, 6, 777001);
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  Snapshot incremental = Snapshot::capture(net.graph(), net.now());
  SnapshotScratch scratch;
  for (int window = 0; window < 6; ++window) {
    feed.clear();
    for (int round = 0; round < 7; ++round) net.step();
    Snapshot::update(net.graph(), feed.deltas(), net.now(), incremental,
                     scratch);
    expect_snapshots_equal(incremental,
                           Snapshot::capture(net.graph(), net.now()),
                           "window " + std::to_string(window));
  }
  net.attach_change_feed(nullptr);
}

// ---- census observers: incremental == from-scratch, exactly ----------------

TEST(IncrementalObserve, CensusObserversMatchFromScratchEveryWindow) {
  for (const char* scenario : {"SDG", "SDGR", "PDG", "PDGR"}) {
    AnyNetwork net = warmed(scenario, 350, 3, 424242);
    ChangeFeed feed;
    net.attach_change_feed(&feed);

    const auto spec = ObserverSpec::parse("isolated+degrees+ages");
    ASSERT_TRUE(spec.has_value());
    ObserverSet incremental = make_observer_set(*spec);
    ObserverSet reference = make_observer_set(*spec);

    incremental.begin_incremental_trial(1234, net.graph(), net.now());
    for (int window = 0; window < 8; ++window) {
      for (int round = 0; round < 4; ++round) {
        feed.clear();
        net.step();
        incremental.on_deltas(net.graph(), feed.deltas(), net.now());
      }
      // All three observers are delta-fed: no dense snapshot is built.
      EXPECT_EQ(incremental.observe(net.graph(), net.now()), nullptr);
      // The oracle measures the same instant from scratch.
      reference.begin_trial(1234);
      reference.observe(net.graph(), net.now());

      std::vector<double> got, want;
      incremental.append_values(got);
      reference.append_values(want);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Exact equality, doubles included: integer counters, nearest-rank
        // quantiles off the histogram, and an age mean summed in the
        // oracle's own accumulation order.
        EXPECT_EQ(got[i], want[i])
            << scenario << " window " << window << " metric " << i;
      }
    }
    net.attach_change_feed(nullptr);
  }
}

// ---- expansion: first observation identity + persistent-set oracle ---------

TEST(IncrementalObserve, ExpansionFirstObservationIsBitIdentical) {
  AnyNetwork net = warmed("SDGR", 250, 4, 5150);
  const Snapshot snap = Snapshot::capture(net.graph(), net.now());

  ProbeOptions options;
  options.random_sets_per_size = 4;
  ExpansionObserver scratch_probe(options);
  scratch_probe.begin_trial(808);
  scratch_probe.on_snapshot(snap);

  ExpansionObserver incremental(options);
  incremental.begin_trial(808);
  incremental.on_trial_start(net.graph(), net.now());
  incremental.on_snapshot(snap);

  EXPECT_EQ(incremental.last().min_ratio, scratch_probe.last().min_ratio);
  EXPECT_EQ(incremental.last().argmin_size, scratch_probe.last().argmin_size);
  EXPECT_EQ(incremental.last().argmin_family,
            scratch_probe.last().argmin_family);
  EXPECT_EQ(incremental.last().sets_probed, scratch_probe.last().sets_probed);
  EXPECT_FALSE(incremental.persistent_sets().empty());
  EXPECT_LE(incremental.persistent_sets().size(),
            static_cast<std::size_t>(ExpansionObserver::kMaxPersistentSets));
}

TEST(IncrementalObserve, PersistentSetsMatchExpansionRatioOracle) {
  AnyNetwork net = warmed("SDGR", 250, 4, 6789);
  ChangeFeed feed;
  net.attach_change_feed(&feed);

  ProbeOptions options;
  options.random_sets_per_size = 4;
  ExpansionObserver observer(options);
  observer.begin_trial(31415);
  observer.on_trial_start(net.graph(), net.now());
  observer.on_snapshot(Snapshot::capture(net.graph(), net.now()));

  for (int window = 0; window < 4; ++window) {
    for (int round = 0; round < 6; ++round) {
      feed.clear();
      net.step();
      observer.on_deltas(net.graph(), feed.deltas(), net.now());
    }
    const Snapshot snap = Snapshot::capture(net.graph(), net.now());
    observer.on_snapshot(snap);

    // Oracle: re-measure every maintained set directly. Repair-on-death
    // must have kept each member alive and present in the snapshot.
    double min_ratio = std::numeric_limits<double>::infinity();
    std::uint32_t probed = 0;
    std::vector<std::uint32_t> indices;
    for (const std::vector<NodeId>& set : observer.persistent_sets()) {
      if (set.empty()) continue;
      indices.clear();
      for (const NodeId id : set) {
        ASSERT_TRUE(net.graph().is_alive(id)) << "window " << window;
        const auto index = snap.index_of(id);
        ASSERT_TRUE(index.has_value()) << "window " << window;
        indices.push_back(*index);
      }
      min_ratio = std::min(min_ratio, expansion_ratio(snap, indices));
      ++probed;
    }
    EXPECT_EQ(observer.last().min_ratio, min_ratio) << "window " << window;
    EXPECT_EQ(observer.last().sets_probed, probed) << "window " << window;
    EXPECT_EQ(observer.last().argmin_family, "persistent")
        << "window " << window;
  }
  net.attach_change_feed(nullptr);
}

// ---- spectral warm start ---------------------------------------------------

std::vector<Snapshot> snapshot_sequence(std::uint64_t seed) {
  AnyNetwork net = warmed("SDGR", 400, 6, seed);
  std::vector<Snapshot> snaps;
  snaps.push_back(Snapshot::capture(net.graph(), net.now()));
  for (int window = 0; window < 3; ++window) {
    for (int round = 0; round < 5; ++round) net.step();
    snaps.push_back(Snapshot::capture(net.graph(), net.now()));
  }
  return snaps;
}

TEST(IncrementalObserve, SpectralWarmStartIsColdIdenticalOnFirstUse) {
  const std::vector<Snapshot> snaps = snapshot_sequence(2718);
  Rng cold_rng(99);
  const SpectralResult cold = spectral_gap(snaps[0], cold_rng, 400, 1e-9);

  Rng warm_rng(99);
  SpectralWarmState state;
  const SpectralResult warm =
      spectral_gap_warm(snaps[0], warm_rng, state, 400, 1e-9);
  EXPECT_EQ(warm.lambda2, cold.lambda2);
  EXPECT_EQ(warm.spectral_gap, cold.spectral_gap);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.converged, cold.converged);
  EXPECT_TRUE(state.valid);
  EXPECT_EQ(state.nodes.size(), snaps[0].node_count());
}

TEST(IncrementalObserve, SpectralWarmStartIsDeterministicAndNoSlower) {
  const std::vector<Snapshot> snaps = snapshot_sequence(3141);

  const auto run_warm = [&snaps] {
    Rng rng(7);
    SpectralWarmState state;
    std::vector<SpectralResult> results;
    for (const Snapshot& snap : snaps) {
      results.push_back(spectral_gap_warm(snap, rng, state, 500, 1e-9));
    }
    return results;
  };
  const std::vector<SpectralResult> a = run_warm();
  const std::vector<SpectralResult> b = run_warm();
  ASSERT_EQ(a.size(), b.size());
  std::uint64_t warm_total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lambda2, b[i].lambda2) << i;
    EXPECT_EQ(a[i].iterations, b[i].iterations) << i;
    EXPECT_EQ(a[i].converged, b[i].converged) << i;
    if (i > 0) warm_total += a[i].iterations;
  }

  // The warm seed starts near the lambda_2 eigenspace: across the
  // post-first probes it must not need more iterations than cold restarts
  // on the same snapshots (deterministic under the pinned seeds).
  std::uint64_t cold_total = 0;
  Rng cold_rng(7);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    cold_total += spectral_gap(snaps[i], cold_rng, 500, 1e-9).iterations;
  }
  EXPECT_LE(warm_total, cold_total);
  EXPECT_GT(cold_total, 0u);
}

TEST(IncrementalObserve, SpectralWarmStartPinnedUnderFixedBudget) {
  // The PR-6 convention for paths that are deterministic but not equal to
  // the serial oracle: pin a fixed-iteration-budget run against itself
  // across repeats (and leave the value itself to the golden benches).
  const std::vector<Snapshot> snaps = snapshot_sequence(1618);
  const auto run_budget = [&snaps](std::uint32_t budget) {
    Rng rng(11);
    SpectralWarmState state;
    std::vector<double> lambdas;
    for (const Snapshot& snap : snaps) {
      lambdas.push_back(
          spectral_gap_warm(snap, rng, state, budget, 0.0).lambda2);
    }
    return lambdas;
  };
  const std::vector<double> a = run_budget(40);
  const std::vector<double> b = run_budget(40);
  EXPECT_EQ(a, b);
  // A zero-tolerance fixed budget runs exactly `budget` iterations, so the
  // warm and cold paths are distinguishable only through the seed vector —
  // and both stay within [0, 1] spectra.
  for (const double lambda : a) {
    EXPECT_GE(lambda, 0.0);
    EXPECT_LE(lambda, 1.0 + 1e-12);
  }
}

// ---- whole-pipeline and sweep equivalence ----------------------------------

TEST(IncrementalObserve, PipelineIncrementalMatchesFromScratch) {
  const auto spec =
      ObserverSpec::parse("expansion(4)+spectral+isolated+demography(16)");
  ASSERT_TRUE(spec.has_value());
  for (const char* scenario : {"SDGR", "PDG"}) {
    AnyNetwork scratch_net = warmed(scenario, 200, 4, 555);
    ObserverSet scratch_set = make_observer_set(*spec);
    const std::vector<double> want =
        observe_network(scratch_net, scratch_set, 777, /*incremental=*/false);

    AnyNetwork inc_net = warmed(scenario, 200, 4, 555);
    ObserverSet inc_set = make_observer_set(*spec);
    const std::vector<double> got =
        observe_network(inc_net, inc_set, 777, /*incremental=*/true);

    ASSERT_EQ(got.size(), want.size()) << scenario;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == want[i] ||
                  (std::isnan(got[i]) && std::isnan(want[i])))
          << scenario << " metric " << i << ": " << got[i]
          << " != " << want[i];
    }
  }
}

TEST(IncrementalObserve, SweepIncrementalIsByteIdenticalAtAnyThreadCount) {
  SweepSpec spec;
  spec.scenarios = {"SDG",  "SDGR",        "PDG",
                    "PDGR", "static-dout", "erdos-renyi"};
  spec.n_values = {200};
  spec.d_values = {3};
  spec.metrics = {"alive", "mean_degree", "isolated",
                  "largest_component_frac"};
  spec.observers = "expansion(4)+spectral+isolated+degrees+ages";
  spec.replications = 2;
  spec.base_seed = 60601;

  const auto csv_of = [](const SweepResult& result) {
    std::ostringstream os;
    result.write_csv(os);
    return os.str();
  };

  const std::string scratch_csv =
      csv_of(SweepService(spec, {.threads = 1}).run());
  spec.incremental_observers = true;
  const std::string inc_t1 = csv_of(SweepService(spec, {.threads = 1}).run());
  const std::string inc_t8 = csv_of(SweepService(spec, {.threads = 8}).run());
  EXPECT_EQ(inc_t1, scratch_csv);
  EXPECT_EQ(inc_t1, inc_t8);
}

}  // namespace
}  // namespace churnet
