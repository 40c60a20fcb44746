// The change-feed contract (graph/change_feed.hpp, DESIGN.md decision
// 15): replaying the delta stream reconstructs every alive node's out-edge
// array exactly after every churn step, across all four paper scenarios
// and both static baselines. The dissemination driver is the feed's
// consumer; this replay is its oracle.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/scenario.hpp"
#include "graph/change_feed.hpp"

namespace churnet {
namespace {

// Every paper scenario plus both static baselines.
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

TEST(ChangeFeed, FeedReplayMatchesEveryScenario) {
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

}  // namespace
}  // namespace churnet
