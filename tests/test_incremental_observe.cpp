// The incremental-observation equivalence suite (DESIGN.md §6, decision
// 15): every delta-fed path is pinned against its from-scratch oracle.
//
//   * change-feed replay reconstructs the adjacency exactly, across all
//     four paper scenarios and both static baselines;
//   * the census observers (isolated, degrees, ages) produce exactly the
//     from-scratch values at every observation of a multi-window trial;
//   * the pipeline and sweeps with incremental observers emit the same
//     values as the from-scratch path, sweeps byte-identical CSV at 1 and
//     at 8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep_service.hpp"
#include "graph/change_feed.hpp"
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

// ---- change-feed replay ---------------------------------------------------

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

TEST(IncrementalObserve, FeedReplayMatchesEveryScenario) {
  for (const char* scenario : kAllScenarios) {
    AnyNetwork net = warmed(scenario, 300, 4, 90125);
    ChangeFeed feed;
    net.attach_change_feed(&feed);

    FeedMirror mirror(net.graph());
    for (int round = 0; round < 24; ++round) {
      feed.clear();
      net.step();
      mirror.replay(feed.deltas());
      mirror.expect_matches(net.graph(), std::string(scenario) + " round " +
                                             std::to_string(round));
    }
    net.attach_change_feed(nullptr);
  }
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
