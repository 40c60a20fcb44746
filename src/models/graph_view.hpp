// GraphReadView adapter over the live DynamicGraph: the read-only window
// the network drivers hand to adversarial churn processes at
// victim-selection time (churn/churn_process.hpp documents the contract;
// DESIGN.md decision 18 the layering: graph < churn < models, so the
// adapter lives model-side to keep the churn layer graph-agnostic).
//
// Construction is free (a reference wrap); drivers build one on the stack
// per adversarial death.
#pragma once

#include <cstdint>
#include <vector>

#include "churn/churn_process.hpp"
#include "graph/dynamic_graph.hpp"

namespace churnet {

class DynamicGraphView final : public GraphReadView {
 public:
  explicit DynamicGraphView(const DynamicGraph& graph) : graph_(graph) {}

  std::uint64_t alive_count() const override { return graph_.alive_count(); }

  std::uint32_t slot_upper_bound() const override {
    return graph_.slot_upper_bound();
  }

  NodeId alive_at(std::uint32_t slot) const override {
    return graph_.slot_alive(slot) ? graph_.alive_id_at(slot) : kInvalidNode;
  }

  /// Answered by the graph's degree index (built on the first call).
  NodeId extreme_degree(bool maximize) const override {
    return graph_.extreme_degree(maximize);
  }

  void append_neighbors(NodeId node, std::vector<NodeId>& out) const override {
    graph_.append_neighbors(node, out);
  }

 private:
  const DynamicGraph& graph_;
};

}  // namespace churnet
