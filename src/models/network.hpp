// The unified dynamic-network model interface (DESIGN.md, decision 7).
//
// Every network model — streaming (SDG/SDGR), Poisson (PDG/PDGR), the
// churn-free static baselines — exposes the same surface, captured by the
// DynamicNetwork concept: advance one churn step, run to a model time,
// warm up to stationarity, observe the alive graph, capture snapshots,
// attach a change feed, access the model's RNG, and hand the graph back.
// Processes and the experiment engine are written once against this
// concept instead of per model.
//
// AnyNetwork type-erases the concept for runtime scenario selection (the
// ScenarioRegistry hands out AnyNetwork instances chosen by name). It also
// carries the model's flooding semantics, so `AnyNetwork::disseminate`
// runs the one dissemination driver on whatever model is inside, and
// `AnyNetwork::flood` is plain flooding through it. The observation
// pipeline (observe/pipeline.hpp) drives this same surface — step() for
// window rounds, snapshot() for the shared snapshot, disseminate() for
// coverage observers — so metric observers attach to every model, current
// and future, without per-model code.
#pragma once

#include <concepts>
#include <memory>
#include <utility>

#include "common/assertx.hpp"
#include "common/rng.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"
#include "protocols/dissemination.hpp"

namespace churnet {

/// A dynamic network model: churn steps, run-to-time, warm-up, alive-graph
/// access, snapshots, a change feed, a per-model RNG stream, and the
/// hand-back of its graph for a later build to recycle.
///
/// `step()` executes the model's smallest churn unit (a streaming round, a
/// Poisson event); its return value is model-specific and not part of the
/// concept. `run_until(t)` advances model time to (at least) t; for
/// discrete models, t is a round count.
template <typename Net>
concept DynamicNetwork = requires(Net& net, const Net& cnet, double time,
                                  ChangeFeed* feed) {
  net.step();
  net.run_until(time);
  net.warm_up();
  net.attach_change_feed(feed);
  { net.rng() } -> std::same_as<Rng&>;
  { cnet.graph() } -> std::same_as<const DynamicGraph&>;
  { cnet.now() } -> std::convertible_to<double>;
  { cnet.snapshot() } -> std::same_as<Snapshot>;
  { net.release_graph() } -> std::same_as<DynamicGraph>;
};

/// A DynamicNetwork that additionally declares flooding semantics for the
/// dissemination driver (protocols/dissemination.hpp) — what AnyNetwork
/// can wrap.
template <typename Net>
concept FloodableNetwork =
    DynamicNetwork<Net> && requires { typename Net::flood_semantics; };

/// Type-erased dynamic network for runtime scenario selection.
///
/// Owns the wrapped model. Satisfies DynamicNetwork itself, so generic code
/// written against the concept runs unchanged on an AnyNetwork;
/// dissemination goes through `disseminate()`, which dispatches to the
/// driver under the wrapped model's semantics.
class AnyNetwork {
 public:
  AnyNetwork() = default;

  template <FloodableNetwork Net>
  explicit AnyNetwork(Net net)
      : impl_(std::make_unique<Model<Net>>(std::move(net))) {}

  /// True when a model is wrapped (default-constructed is empty).
  bool valid() const { return impl_ != nullptr; }

  void step() { checked().step(); }
  void run_until(double time) { checked().run_until(time); }
  void warm_up() { checked().warm_up(); }
  void attach_change_feed(ChangeFeed* feed) {
    checked().attach_change_feed(feed);
  }
  Rng& rng() { return checked().rng(); }
  const DynamicGraph& graph() const { return checked().graph(); }
  double now() const { return checked().now(); }
  Snapshot snapshot() const { return checked().snapshot(); }

  /// Ends the wrapped model and hands back its graph, whose storage a
  /// later build can recycle (the `recycled` argument of Scenario::make
  /// and make_warmed). Leaves this AnyNetwork empty.
  DynamicGraph release_graph() {
    DynamicGraph graph = checked().release_graph();
    impl_.reset();
    return graph;
  }

  /// Runs the wrapped model's flooding process: FloodProtocol through
  /// disseminate(). The terminal informed set is scratch.flood's.
  FloodTrace flood(const FloodOptions& options, ProtocolScratch& scratch) {
    FloodProtocol protocol;
    return disseminate(protocol, ProtocolOptions{options}, scratch).trace;
  }
  FloodTrace flood(const FloodOptions& options = {}) {
    ProtocolScratch scratch;
    return flood(options, scratch);
  }

  /// Runs `protocol` on the wrapped model via the dissemination driver,
  /// under the model's own flood semantics (protocols/).
  ProtocolResult disseminate(DisseminationProtocol& protocol,
                             const ProtocolOptions& options,
                             ProtocolScratch& scratch) {
    return checked().disseminate(protocol, options, scratch);
  }
  ProtocolResult disseminate(DisseminationProtocol& protocol,
                             const ProtocolOptions& options = {}) {
    ProtocolScratch scratch;
    return disseminate(protocol, options, scratch);
  }

  /// Typed access to the wrapped model; nullptr on a type mismatch.
  template <typename Net>
  Net* get_if() {
    auto* model = dynamic_cast<Model<Net>*>(impl_.get());
    return model != nullptr ? &model->net : nullptr;
  }
  template <typename Net>
  const Net* get_if() const {
    const auto* model = dynamic_cast<const Model<Net>*>(impl_.get());
    return model != nullptr ? &model->net : nullptr;
  }

 private:
  struct Interface {
    virtual ~Interface() = default;
    virtual void step() = 0;
    virtual void run_until(double time) = 0;
    virtual void warm_up() = 0;
    virtual void attach_change_feed(ChangeFeed* feed) = 0;
    virtual Rng& rng() = 0;
    virtual const DynamicGraph& graph() const = 0;
    virtual double now() const = 0;
    virtual Snapshot snapshot() const = 0;
    virtual DynamicGraph release_graph() = 0;
    virtual ProtocolResult disseminate(DisseminationProtocol& protocol,
                                       const ProtocolOptions& options,
                                       ProtocolScratch& scratch) = 0;
  };

  template <typename Net>
  struct Model final : Interface {
    explicit Model(Net model) : net(std::move(model)) {}
    void step() override { net.step(); }
    void run_until(double time) override { net.run_until(time); }
    void warm_up() override { net.warm_up(); }
    void attach_change_feed(ChangeFeed* feed) override {
      net.attach_change_feed(feed);
    }
    Rng& rng() override { return net.rng(); }
    const DynamicGraph& graph() const override { return net.graph(); }
    double now() const override { return net.now(); }
    Snapshot snapshot() const override { return net.snapshot(); }
    DynamicGraph release_graph() override { return net.release_graph(); }
    ProtocolResult disseminate(DisseminationProtocol& protocol,
                               const ProtocolOptions& options,
                               ProtocolScratch& scratch) override {
      return disseminate_dynamic(net, protocol, options, scratch);
    }

    Net net;
  };

  Interface& checked() {
    CHURNET_EXPECTS(impl_ != nullptr);
    return *impl_;
  }
  const Interface& checked() const {
    CHURNET_EXPECTS(impl_ != nullptr);
    return *impl_;
  }

  std::unique_ptr<Interface> impl_;
};

static_assert(DynamicNetwork<AnyNetwork>,
              "AnyNetwork must itself satisfy the concept it erases");

}  // namespace churnet
