// Vertex-expansion measurement (paper Definition 3.1).
//
// h_out(G) = min over 0 < |S| <= |N|/2 of |∂out(S)| / |S|.
//
// Certifying h_out exactly is exponential, so the library offers:
//   * exact_vertex_expansion   -- exhaustive, for n <= 20 (tests, tiny demos)
//   * probe_expansion          -- an *upper bound* on h_out obtained from
//     adversarial candidate families: random sets, BFS balls, age prefixes
//     and suffixes (the paper's worst cases are sets of old nodes), and a
//     greedy minimum-boundary growth. A probe that stays above the paper's
//     ε = 0.1 across thousands of adversarial candidates is evidence for the
//     expansion theorems, not a certificate; DESIGN.md §8 says so plainly.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "graph/snapshot.hpp"

namespace churnet {

/// Incremental set/boundary tracker over a snapshot.
///
/// add() maintains |∂out(S)| under single-node insertions in O(deg) time,
/// which lets one growth pass report the expansion ratio at every prefix
/// size. Used by all candidate families and exposed publicly for custom
/// probes.
class IncrementalSet {
 public:
  explicit IncrementalSet(const Snapshot& snapshot);

  /// Adds node `v` (must not be in the set).
  void add(std::uint32_t v);

  bool contains(std::uint32_t v) const { return in_set_[v]; }
  std::uint32_t size() const { return size_; }
  std::uint32_t boundary_size() const { return boundary_; }
  /// |∂out(S)| / |S|; requires a non-empty set.
  double ratio() const;

  /// Resets to the empty set in O(touched) time.
  void clear();

 private:
  const Snapshot* snapshot_;
  std::vector<bool> in_set_;
  std::vector<bool> in_boundary_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t size_ = 0;
  std::uint32_t boundary_ = 0;
};

/// |∂out(S)| for an explicit set of snapshot indices.
std::uint32_t boundary_size(const Snapshot& snapshot,
                            std::span<const std::uint32_t> set);

/// |∂out(S)|/|S| for an explicit non-empty set.
double expansion_ratio(const Snapshot& snapshot,
                       std::span<const std::uint32_t> set);

/// Exhaustive h_out; requires node_count() <= 20.
double exact_vertex_expansion(const Snapshot& snapshot);

struct ProbeOptions {
  std::uint32_t min_size = 1;
  /// 0 means node_count()/2 (the definition's upper limit).
  std::uint32_t max_size = 0;
  /// Random subsets drawn per probed size.
  std::uint32_t random_sets_per_size = 8;
  /// Number of geometrically spaced sizes between min and max.
  std::uint32_t size_steps = 24;
  /// BFS balls around this many random seeds (ratios at every prefix size).
  std::uint32_t bfs_seeds = 8;
  /// Include oldest-k and youngest-k prefixes for every k in range.
  bool age_ranges = true;
  /// Probe the k lowest-degree vertices as singletons and the set of all
  /// degree-0 vertices (catches the SDG/PDG isolated-node worst case).
  std::uint32_t low_degree_singletons = 16;
  /// Greedy minimum-boundary growth runs (ratios at every prefix size).
  std::uint32_t greedy_seeds = 4;
  /// Cap on greedy/BFS growth length (they are the slow families).
  std::uint32_t growth_limit = 4096;
  /// Candidate boundary nodes evaluated per greedy step.
  std::uint32_t greedy_fanout = 48;
};

struct ProbeResult {
  double min_ratio = std::numeric_limits<double>::infinity();
  std::uint32_t argmin_size = 0;
  std::string argmin_family;
  std::uint64_t sets_probed = 0;

  /// Feeds one candidate observation into the running minimum.
  void observe(double ratio, std::uint32_t size, const char* family);
};

/// Probes h_out from above using all enabled candidate families.
ProbeResult probe_expansion(const Snapshot& snapshot, Rng& rng,
                            const ProbeOptions& options = {});

}  // namespace churnet
