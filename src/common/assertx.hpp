// Lightweight contract-checking macros.
//
// CHURNET_EXPECTS / CHURNET_ENSURES document pre/post-conditions on public
// API boundaries; CHURNET_ASSERT guards internal invariants. All three abort
// with a source location; they stay active in release builds because the
// simulator is a measurement instrument and silent corruption would
// invalidate experiments. The cost is negligible at event granularity.
#pragma once

#include <cstdio>
#include <cstdlib>

// Every pinned output assumes sums are evaluated in source order
// (DESIGN.md decision 1); -ffast-math reassociates them.
#ifdef __FAST_MATH__
#error "churnet must not be built with -ffast-math: it reorders pinned sums"
#endif

namespace churnet::detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  std::fprintf(stderr, "churnet: %s failed: %s (%s:%d)\n", kind, expr, file,
               line);
  std::abort();
}

}  // namespace churnet::detail

#define CHURNET_EXPECTS(cond)                                              \
  ((cond) ? static_cast<void>(0)                                           \
          : ::churnet::detail::contract_failure("precondition", #cond,     \
                                                __FILE__, __LINE__))

#define CHURNET_ENSURES(cond)                                              \
  ((cond) ? static_cast<void>(0)                                           \
          : ::churnet::detail::contract_failure("postcondition", #cond,    \
                                                __FILE__, __LINE__))

#define CHURNET_ASSERT(cond)                                               \
  ((cond) ? static_cast<void>(0)                                           \
          : ::churnet::detail::contract_failure("invariant", #cond,        \
                                                __FILE__, __LINE__))
