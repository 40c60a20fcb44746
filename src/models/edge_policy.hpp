// Edge-dynamics policy shared by the streaming and Poisson models.
#pragma once

#include <cstdint>

namespace churnet {

/// Paper Definitions 3.4/4.9 (kNone) vs 3.13/4.14 (kRegenerate).
enum class EdgePolicy : std::uint8_t {
  kNone,        // edges are created only at birth and die with endpoints
  kRegenerate,  // an out-edge whose target dies is instantly redrawn
};

}  // namespace churnet
