// ProtocolSpec grammar tests (protocols/protocol_spec.hpp) — parsing,
// canonical forms, defaults, and the diagnostic messages for malformed
// specs — plus the scenario-registry composites that attach protocols to
// model names ("PDGR+pareto(2.5)+push(3)"), mirroring the ChurnSpec tests.
#include <gtest/gtest.h>

#include <string>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

ProtocolSpec parse_ok(const std::string& text) {
  std::string error;
  const auto spec = ProtocolSpec::parse(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(ProtocolSpec{});
}

std::string parse_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse(text, &error).has_value()) << text;
  return error;
}

TEST(ProtocolSpec, ParsesEveryBaseProtocol) {
  EXPECT_EQ(parse_ok("flood").kind, ProtocolSpec::Kind::kFlood);
  EXPECT_EQ(parse_ok("FLOOD").kind, ProtocolSpec::Kind::kFlood);

  const ProtocolSpec push = parse_ok("push(3)");
  EXPECT_EQ(push.kind, ProtocolSpec::Kind::kPush);
  EXPECT_EQ(push.fanout, 3u);
  EXPECT_EQ(parse_ok("push").fanout, 1u);  // default fanout
  EXPECT_EQ(parse_ok("push()").fanout, 1u);

  EXPECT_EQ(parse_ok("pull(2)").kind, ProtocolSpec::Kind::kPull);
  EXPECT_EQ(parse_ok("push-pull(2)").kind, ProtocolSpec::Kind::kPushPull);
  EXPECT_EQ(parse_ok("pushpull(2)").kind, ProtocolSpec::Kind::kPushPull);

  const ProtocolSpec ttl = parse_ok("ttl(4)");
  EXPECT_EQ(ttl.kind, ProtocolSpec::Kind::kTtl);
  EXPECT_EQ(ttl.ttl, 4u);
  EXPECT_EQ(parse_ok("ttl(0)").ttl, 0u);  // degenerate but well-defined
  EXPECT_EQ(parse_ok(" push ( 2 ) ").fanout, 2u);  // whitespace tolerated
}

TEST(ProtocolSpec, ParsesModifiersInAnyOrder) {
  const ProtocolSpec lossy = parse_ok("flood+lossy(0.9)");
  EXPECT_TRUE(lossy.lossy());
  EXPECT_DOUBLE_EQ(lossy.loss_q, 0.9);

  const ProtocolSpec both = parse_ok("push(3)+lossy(0.5)+sources(4)");
  EXPECT_EQ(both.fanout, 3u);
  EXPECT_DOUBLE_EQ(both.loss_q, 0.5);
  EXPECT_EQ(both.sources, 4u);

  const ProtocolSpec reversed = parse_ok("push(3)+sources(4)+lossy(0.5)");
  EXPECT_EQ(reversed, both);

  EXPECT_FALSE(parse_ok("flood+lossy(1)").lossy());  // q=1 is lossless
}

TEST(ProtocolSpec, CanonicalFormsRoundTrip) {
  for (const char* text :
       {"flood", "push(3)", "pull(2)", "push-pull(1)", "ttl(4)",
        "flood+lossy(0.90)", "push(2)+lossy(0.75)+sources(3)",
        "ttl(6)+sources(2)"}) {
    const ProtocolSpec spec = parse_ok(text);
    EXPECT_EQ(spec.canonical(), text);
    EXPECT_EQ(parse_ok(spec.canonical()), spec) << text;
  }
  // The canonical protocol name matches the instantiated protocol's name
  // (modulo the driver-level sources modifier).
  EXPECT_EQ(make_protocol(parse_ok("push(3)+lossy(0.9)"))->name(),
            "push(3)+lossy(0.90)");
  // A delivery probability two decimals would round prints in full:
  // lossy(0.999) is neither lossless nor lossy(0.9991).
  const ProtocolSpec lossy = parse_ok("flood+lossy(0.999)");
  EXPECT_EQ(lossy.canonical(), "flood+lossy(0.999)");
  EXPECT_EQ(parse_ok(lossy.canonical()), lossy);
  EXPECT_EQ(make_protocol(lossy)->name(), lossy.canonical());
  EXPECT_NE(lossy.canonical(), parse_ok("flood+lossy(0.9991)").canonical());
}

TEST(ProtocolSpec, RejectsUnknownNamesListingTheCatalog) {
  const std::string error = parse_error("gossipmonger(3)");
  EXPECT_NE(error.find("unknown protocol 'gossipmonger'"),
            std::string::npos);
  EXPECT_NE(error.find("flood"), std::string::npos);
  EXPECT_NE(error.find("push(k)"), std::string::npos);
  EXPECT_NE(error.find("ttl(h)"), std::string::npos);
  EXPECT_NE(error.find("lossy(q)"), std::string::npos);
}

TEST(ProtocolSpec, RejectsBadAritiesAndArguments) {
  EXPECT_NE(parse_error("flood(3)").find("at most 0 argument"),
            std::string::npos);
  EXPECT_NE(parse_error("push(1,2)").find("at most 1 argument"),
            std::string::npos);
  EXPECT_NE(parse_error("push(0)").find("push fanout must be an integer"),
            std::string::npos);
  EXPECT_NE(parse_error("push(2.5)").find("integer"), std::string::npos);
  EXPECT_NE(parse_error("push(-1)").find("integer"), std::string::npos);
  EXPECT_NE(parse_error("ttl").find("needs a hop bound"),
            std::string::npos);
  EXPECT_NE(parse_error("ttl(1.5)").find("integer"), std::string::npos);
  EXPECT_NE(parse_error("push(").find("missing closing ')'"),
            std::string::npos);
  EXPECT_NE(parse_error("push(,)").find("empty argument"),
            std::string::npos);
  EXPECT_NE(parse_error("push(two)").find("bad number"), std::string::npos);
  EXPECT_NE(parse_error("").find("empty protocol spec"), std::string::npos);
}

TEST(ProtocolSpec, BoundsGossipFanoutAtTheExpansionLimit) {
  // A step's pair list holds up to fanout x informed entries: push(1e9)
  // would run for seconds before failing, so parse() names the bound.
  EXPECT_NE(parse_error("push(1000000000)")
                .find("push fanout must be an integer >= 1 and at most 1024"),
            std::string::npos);
  EXPECT_NE(parse_error("pull(1025)")
                .find("pull fanout must be an integer >= 1 and at most 1024"),
            std::string::npos);
  EXPECT_NE(parse_error("push-pull(1e300)").find("at most 1024"),
            std::string::npos);
  EXPECT_EQ(parse_ok("push(1024)").fanout, 1024u);
  EXPECT_EQ(parse_ok("push(1024)").canonical(), "push(1024)");
  // The catalog lines name the bound too.
  for (const auto& [name, text] : ProtocolSpec::catalog()) {
    if (name == "push(k)" || name == "pull(k)" || name == "push-pull(k)") {
      EXPECT_NE(text.find("at most 1024"), std::string::npos) << name;
    }
  }
}

TEST(ProtocolSpec, RejectsOutOfRangeLossProbability) {
  for (const char* text :
       {"flood+lossy(0)", "flood+lossy(-0.5)", "flood+lossy(1.5)"}) {
    EXPECT_NE(parse_error(text).find(
                  "delivery probability must be in (0, 1]"),
              std::string::npos)
        << text;
  }
  EXPECT_NE(parse_error("flood+lossy").find("needs a delivery probability"),
            std::string::npos);
}

TEST(ProtocolSpec, RejectsMalformedModifierCompositions) {
  EXPECT_NE(parse_error("lossy(0.9)").find("start with a base protocol"),
            std::string::npos);
  EXPECT_NE(parse_error("sources(2)").find("start with a base protocol"),
            std::string::npos);
  EXPECT_NE(parse_error("flood+lossy(0.9)+lossy(0.8)")
                .find("lossy(q) given twice"),
            std::string::npos);
  EXPECT_NE(parse_error("flood+sources(2)+sources(3)")
                .find("sources(s) given twice"),
            std::string::npos);
  EXPECT_NE(parse_error("flood+push(2)").find("only the lossy(q) and "
                                              "sources(s) modifiers"),
            std::string::npos);
  EXPECT_NE(parse_error("flood+sources(0)")
                .find("source count must be an integer >= 1"),
            std::string::npos);
}

TEST(ProtocolSpec, KnownNameDispatchCoversBasesAndModifiers) {
  for (const char* name :
       {"flood", "push", "pull", "push-pull", "pushpull", "ttl", "lossy",
        "sources"}) {
    EXPECT_TRUE(ProtocolSpec::is_known_name(name)) << name;
  }
  EXPECT_FALSE(ProtocolSpec::is_known_name("pareto"));
  EXPECT_FALSE(ProtocolSpec::is_known_name("gossip"));
  EXPECT_GE(ProtocolSpec::catalog().size(), 7u);
}

// ---- scenario-registry composites -----------------------------------------

TEST(ScenarioProtocolComposites, ResolveAttachesProtocols) {
  const Scenario push =
      ScenarioRegistry::paper().resolve("PDGR+push(3)");
  EXPECT_EQ(push.name(), "PDGR+push(3)");
  EXPECT_EQ(push.protocol().kind, ProtocolSpec::Kind::kPush);
  EXPECT_EQ(push.churn().kind, ChurnSpec::Kind::kJumpChain);

  // Churn and protocol segments compose, in either order, canonically
  // named churn-first.
  for (const char* name :
       {"PDGR+pareto(2.5)+push(3)", "PDGR+push(3)+pareto(2.5)"}) {
    const Scenario combo = ScenarioRegistry::paper().resolve(name);
    EXPECT_EQ(combo.name(), "PDGR+pareto(2.50)+push(3)") << name;
    EXPECT_EQ(combo.churn().kind, ChurnSpec::Kind::kPareto);
    EXPECT_EQ(combo.protocol().fanout, 3u);
  }

  // Multi-segment protocol specs arrive as separate '+' segments.
  const Scenario lossy =
      ScenarioRegistry::paper().resolve("SDGR+flood+lossy(0.9)");
  EXPECT_EQ(lossy.name(), "SDGR+flood+lossy(0.90)");
  EXPECT_DOUBLE_EQ(lossy.protocol().loss_q, 0.9);

  // Protocols run on baselines too (no churn involved).
  const Scenario baseline =
      ScenarioRegistry::paper().resolve("static-dout+push-pull(2)");
  EXPECT_EQ(baseline.protocol().kind, ProtocolSpec::Kind::kPushPull);

  // A default-flood spec never decorates the name.
  EXPECT_EQ(ScenarioRegistry::paper().resolve("PDGR").protocol(),
            ProtocolSpec{});
}

TEST(ScenarioProtocolComposites, ComposedScenarioBuildsAndRuns) {
  const Scenario combo = ScenarioRegistry::extended().resolve(
      "PDGR+pareto(2.5)+push(2)+lossy(0.9)");
  ScenarioParams params;
  params.n = 200;
  params.d = 4;
  params.seed = 77;
  AnyNetwork net = combo.make_warmed(params);
  const auto protocol = make_protocol(combo.protocol());
  ProtocolOptions options = protocol_options(combo.protocol(), 5);
  options.flood.max_steps = 120;
  options.flood.stop_on_die_out = false;
  const ProtocolResult result = net.disseminate(*protocol, options);
  EXPECT_GT(result.stats.final_coverage, 0.5);
  EXPECT_GT(result.stats.lost_messages, 0u);
}

TEST(ScenarioProtocolCompositesDeathTest, BadSegmentsDieWithBothCatalogs) {
  // Unknown segment: the diagnostic names the churn regimes AND the
  // protocol catalog so sweep typos are self-diagnosing.
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("PDGR+carrier-pigeon(1)"),
               "unknown churn regime 'carrier-pigeon'.*known protocols:"
               ".*push\\(k\\)");
  // Malformed protocol specs surface the protocol parser's reason.
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("PDGR+push(0)"),
               "push fanout must be an integer >= 1");
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("PDGR+flood+lossy(2)"),
               "delivery probability must be in \\(0, 1\\]");
  EXPECT_DEATH(ScenarioRegistry::paper().resolve("PDGR+lossy(0.9)"),
               "start with a base protocol");
  // Churn diagnostics are unchanged by the protocol layer.
  EXPECT_DEATH(
      ScenarioRegistry::paper().resolve("PDGR+pareto(2.5)+drift(2)"),
      "more than one churn spec");
}

}  // namespace
}  // namespace churnet
