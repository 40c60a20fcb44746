// Textual dissemination-protocol specs: the grammar scenarios and sweeps
// use to name a protocol, and the factory that instantiates one —
// mirroring churn/churn_spec.hpp for the protocol axis.
//
// Grammar (case-insensitive, optional whitespace):
//
//   spec     := base ('+' modifier)*
//   base     := "flood" | "push" ['(' k ')'] | "pull" ['(' k ')']
//               | "push-pull" ['(' k ')'] | "ttl" '(' h ')'
//   modifier := "lossy" '(' q ')' | "sources" '(' s ')'
//
//   flood           full flooding (the paper's process; the driver runs
//                   it on slot-set candidates, see dissemination.hpp)
//   push(k)         PUSH gossip, fanout 1 <= k <= 1024 (default 1)
//   pull(k)         PULL gossip, fanout 1 <= k <= 1024 (default 1)
//   push-pull(k)    PUSH-PULL gossip, fanout 1 <= k <= 1024 (default 1)
//   ttl(h)          hop-bounded flooding, h >= 0 hops (no default: a TTL
//                   without a bound is just flood)
//   +lossy(q)       per-message delivery probability q in (0, 1]
//   +sources(s)     s >= 1 initially informed nodes
//
// "pushpull" is accepted as an alias of "push-pull". Malformed specs are
// rejected with a one-line reason (unknown name listing the known
// protocols, wrong arity, out-of-range q / fanout / ttl), surfaced
// verbatim by the scenario registry and the sweep config loader.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "protocols/gossip.hpp"
#include "protocols/protocol.hpp"

namespace churnet {

struct ProtocolSpec {
  enum class Kind : std::uint8_t {
    kFlood,
    kPush,
    kPull,
    kPushPull,
    kTtl,
  };

  Kind kind = Kind::kFlood;
  /// Gossip fanout k (push/pull/push-pull); ignored by flood and ttl.
  std::uint32_t fanout = 1;
  /// Hop bound for ttl; ignored otherwise.
  std::uint32_t ttl = 0;
  /// Per-message delivery probability; 1.0 = lossless (no wrapper).
  double loss_q = 1.0;
  /// Initially informed nodes (driver-level; see ProtocolOptions).
  std::uint32_t sources = 1;

  bool lossy() const { return loss_q < 1.0; }

  /// The spec in canonical text form ("push(3)", "flood+lossy(0.90)",
  /// "ttl(4)+sources(2)", ...); matches the instantiated protocol's
  /// name() plus the "+sources(s)" suffix when s > 1.
  std::string canonical() const;

  /// Parses `text`; on failure returns nullopt and, when `error` is
  /// non-null, stores a one-line reason (unknown names list the catalog).
  static std::optional<ProtocolSpec> parse(std::string_view text,
                                           std::string* error = nullptr);

  /// True when `name` ("push" — the call name alone, no arguments) names a
  /// base protocol or a modifier of this grammar; used to dispatch
  /// composite-scenario segments between the churn and protocol families.
  static bool is_known_name(std::string_view name);

  /// One-line summary of the grammar's names ("flood, push(k), ...") for
  /// diagnostics and --list-protocols.
  static std::string known_names();

  /// The protocol catalog as (spelling, description) rows.
  static std::vector<std::pair<std::string, std::string>> catalog();

  friend bool operator==(const ProtocolSpec&, const ProtocolSpec&) = default;
};

/// Instantiates the protocol a spec names (wrapping in LossyProtocol when
/// loss_q < 1). The spec's `sources` field is a driver option — callers
/// forward it into ProtocolOptions::sources (see protocol_options()).
std::unique_ptr<DisseminationProtocol> make_protocol(const ProtocolSpec& spec);

/// ProtocolOptions pre-filled from a spec (sources) and a run seed, with
/// flood-compatible defaults.
ProtocolOptions protocol_options(const ProtocolSpec& spec,
                                 std::uint64_t seed);

}  // namespace churnet
