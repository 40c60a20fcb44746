#include "baselines/static_dout.hpp"

#include <utility>
#include <vector>

#include "common/assertx.hpp"

namespace churnet {

Snapshot static_dout_snapshot(std::uint32_t n, std::uint32_t d, Rng& rng) {
  CHURNET_EXPECTS(n >= 2);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(static_cast<std::size_t>(n) * d);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t k = 0; k < d; ++k) {
      // Uniform over the other n-1 nodes.
      auto v = static_cast<std::uint32_t>(rng.below(n - 1));
      if (v >= u) ++v;
      edges.emplace_back(u, v);
    }
  }
  return Snapshot::from_edges(n, edges);
}

}  // namespace churnet
