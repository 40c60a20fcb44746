#include "protocols/protocol_spec.hpp"

#include <cmath>

#include "common/assertx.hpp"
#include "common/specgram.hpp"
#include "common/table.hpp"

namespace churnet {
namespace {

constexpr const char* kBaseNames[] = {"flood", "push", "pull", "push-pull",
                                      "pushpull", "ttl"};
constexpr const char* kModifierNames[] = {"lossy", "sources"};

bool fail(std::string* error, std::string message) {
  return spec_fail(error, std::move(message));
}

// Upper bounds on the integer arguments. A step's pair list holds up to
// fanout x informed entries, so a gossip fanout shares the expansion(k)
// bound; the largest fanout in the tree is 3. Hop bounds and source counts
// only cap loops the graph already bounds.
constexpr std::uint32_t kMaxFanout = 1024;
constexpr std::uint32_t kMaxCount = 1'000'000'000;

/// Reads an integer argument in [minimum, maximum] (fanout, ttl, sources);
/// rejects fractional and out-of-range values with the parameter's name and
/// both bounds.
bool read_count(double value, const char* what, std::uint32_t minimum,
                std::uint32_t maximum, std::uint32_t* out,
                std::string* error) {
  if (std::floor(value) != value || value < minimum || value > maximum) {
    const std::string got =
        std::abs(value) < 1e15 ? fmt_fixed(value, 3) : fmt_sci(value);
    fail(error, std::string(what) + " must be an integer >= " +
                    std::to_string(minimum) + " and at most " +
                    std::to_string(maximum) + " (got " + got + ")");
    return false;
  }
  *out = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

std::string ProtocolSpec::canonical() const {
  std::string text;
  switch (kind) {
    case Kind::kFlood:
      text = "flood";
      break;
    case Kind::kPush:
      text = "push(" + fmt_int(static_cast<std::int64_t>(fanout)) + ")";
      break;
    case Kind::kPull:
      text = "pull(" + fmt_int(static_cast<std::int64_t>(fanout)) + ")";
      break;
    case Kind::kPushPull:
      text = "push-pull(" + fmt_int(static_cast<std::int64_t>(fanout)) + ")";
      break;
    case Kind::kTtl:
      text = "ttl(" + fmt_int(static_cast<std::int64_t>(ttl)) + ")";
      break;
  }
  if (lossy()) text += "+lossy(" + fmt_spec_arg(loss_q) + ")";
  if (sources > 1) {
    text += "+sources(" + fmt_int(static_cast<std::int64_t>(sources)) + ")";
  }
  return text;
}

std::optional<ProtocolSpec> ProtocolSpec::parse(std::string_view text,
                                                std::string* error) {
  const std::vector<std::string_view> segments = split_spec_segments(text);
  ProtocolSpec spec;
  bool have_loss = false;
  bool have_sources = false;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    SpecCall call;
    if (!split_spec_call(segments[i], "protocol spec", &call, error)) {
      return std::nullopt;
    }
    const auto arity = [&](std::size_t max_args) {
      if (call.args.size() <= max_args) return true;
      fail(error, "protocol spec '" + std::string(trim_spec(segments[i])) +
                      "': at most " + std::to_string(max_args) +
                      " argument(s) allowed");
      return false;
    };
    if (call.name == "lossy") {
      if (i == 0) {
        fail(error,
             "protocol spec '" + std::string(trim_spec(text)) +
                 "': lossy(q) is a modifier; start with a base protocol "
                 "(flood, push(k), pull(k), push-pull(k), ttl(h))");
        return std::nullopt;
      }
      if (!arity(1)) return std::nullopt;
      if (have_loss) {
        fail(error, "protocol spec '" + std::string(trim_spec(text)) +
                        "': lossy(q) given twice");
        return std::nullopt;
      }
      if (call.args.empty()) {
        fail(error, "lossy(q) needs a delivery probability");
        return std::nullopt;
      }
      spec.loss_q = call.args[0];
      if (!(spec.loss_q > 0.0) || spec.loss_q > 1.0) {
        fail(error, "lossy delivery probability must be in (0, 1] (got " +
                        fmt_fixed(spec.loss_q, 3) + ")");
        return std::nullopt;
      }
      have_loss = true;
      continue;
    }
    if (call.name == "sources") {
      if (i == 0) {
        fail(error,
             "protocol spec '" + std::string(trim_spec(text)) +
                 "': sources(s) is a modifier; start with a base protocol "
                 "(flood, push(k), pull(k), push-pull(k), ttl(h))");
        return std::nullopt;
      }
      if (!arity(1)) return std::nullopt;
      if (have_sources) {
        fail(error, "protocol spec '" + std::string(trim_spec(text)) +
                        "': sources(s) given twice");
        return std::nullopt;
      }
      if (call.args.empty()) {
        fail(error, "sources(s) needs a source count");
        return std::nullopt;
      }
      if (!read_count(call.args[0], "source count", 1, kMaxCount,
                      &spec.sources, error)) {
        return std::nullopt;
      }
      have_sources = true;
      continue;
    }
    if (i > 0) {
      fail(error, "protocol spec '" + std::string(trim_spec(text)) +
                      "': only the lossy(q) and sources(s) modifiers may "
                      "follow the base protocol (got '" + call.name + "')");
      return std::nullopt;
    }
    if (call.name == "flood") {
      if (!arity(0)) return std::nullopt;
      spec.kind = Kind::kFlood;
    } else if (call.name == "push") {
      if (!arity(1)) return std::nullopt;
      spec.kind = Kind::kPush;
      if (!call.args.empty() &&
          !read_count(call.args[0], "push fanout", 1, kMaxFanout,
                      &spec.fanout, error)) {
        return std::nullopt;
      }
    } else if (call.name == "pull") {
      if (!arity(1)) return std::nullopt;
      spec.kind = Kind::kPull;
      if (!call.args.empty() &&
          !read_count(call.args[0], "pull fanout", 1, kMaxFanout,
                      &spec.fanout, error)) {
        return std::nullopt;
      }
    } else if (call.name == "push-pull" || call.name == "pushpull") {
      if (!arity(1)) return std::nullopt;
      spec.kind = Kind::kPushPull;
      if (!call.args.empty() &&
          !read_count(call.args[0], "push-pull fanout", 1, kMaxFanout,
                      &spec.fanout, error)) {
        return std::nullopt;
      }
    } else if (call.name == "ttl") {
      if (!arity(1)) return std::nullopt;
      spec.kind = Kind::kTtl;
      if (call.args.empty()) {
        fail(error,
             "ttl(h) needs a hop bound (an unbounded TTL is just flood)");
        return std::nullopt;
      }
      if (!read_count(call.args[0], "ttl hop bound", 0, kMaxCount,
                      &spec.ttl, error)) {
        return std::nullopt;
      }
    } else {
      fail(error, "unknown protocol '" + call.name +
                      "'; known: " + known_names());
      return std::nullopt;
    }
  }
  return spec;
}

bool ProtocolSpec::is_known_name(std::string_view name) {
  const std::string lowered = lowercase_spec(name);
  for (const char* known : kBaseNames) {
    if (lowered == known) return true;
  }
  for (const char* known : kModifierNames) {
    if (lowered == known) return true;
  }
  return false;
}

std::string ProtocolSpec::known_names() {
  return "flood, push(k), pull(k), push-pull(k), ttl(h), and the "
         "+lossy(q), +sources(s) modifiers";
}

std::vector<std::pair<std::string, std::string>> ProtocolSpec::catalog() {
  return {
      {"flood", "full flooding (the paper's process; default)"},
      {"push(k)", "PUSH gossip: informed nodes send to k random neighbors "
                  "per step (default k=1, at most " +
                      std::to_string(kMaxFanout) + ")"},
      {"pull(k)", "PULL gossip: uninformed nodes probe k random neighbors "
                  "per step (default k=1, at most " +
                      std::to_string(kMaxFanout) + ")"},
      {"push-pull(k)", "PUSH-PULL: every node contacts k random neighbors; "
                       "informed ends exchange the rumor (default k=1, at "
                       "most " +
                           std::to_string(kMaxFanout) + ")"},
      {"ttl(h)", "hop-bounded flooding: forwarding stops h hops from the "
                 "source"},
      {"+lossy(q)", "modifier: each message is delivered independently "
                    "with probability q in (0, 1]"},
      {"+sources(s)", "modifier: start from s initially informed nodes"},
  };
}

std::unique_ptr<DisseminationProtocol> make_protocol(
    const ProtocolSpec& spec) {
  std::unique_ptr<DisseminationProtocol> base;
  switch (spec.kind) {
    case ProtocolSpec::Kind::kFlood:
      base = std::make_unique<FloodProtocol>();
      break;
    case ProtocolSpec::Kind::kPush:
      base = std::make_unique<PushProtocol>(spec.fanout);
      break;
    case ProtocolSpec::Kind::kPull:
      base = std::make_unique<PullProtocol>(spec.fanout);
      break;
    case ProtocolSpec::Kind::kPushPull:
      base = std::make_unique<PushPullProtocol>(spec.fanout);
      break;
    case ProtocolSpec::Kind::kTtl:
      base = std::make_unique<TtlFloodProtocol>(spec.ttl);
      break;
  }
  CHURNET_ASSERT(base != nullptr);
  if (spec.lossy()) {
    base = std::make_unique<LossyProtocol>(std::move(base), spec.loss_q);
  }
  return base;
}

ProtocolOptions protocol_options(const ProtocolSpec& spec,
                                 std::uint64_t seed) {
  ProtocolOptions options;
  options.seed = seed;
  options.sources = spec.sources;
  return options;
}

}  // namespace churnet
