// Correlated burst churn: regional mass failure and flash crowds.
//
// Between bursts the regime is the paper's jump chain (Lemma 4.6) at base
// rates (lambda, mu). Every `period` expected lifetimes (i.e. period/mu
// time units) a burst fires:
//
//   massfail(p, T)    kills floor(p * alive) uniformly random nodes, all at
//                     the burst instant — a correlated regional outage;
//   flashcrowd(f, T)  births floor(f * alive) nodes at the burst instant —
//                     a join surge (each newborn wires its d requests as
//                     usual).
//
// Sampling stays exact between bursts: the waiting time to the next
// baseline event is Exp(lambda + N*mu); when the sampled time crosses the
// next burst boundary, the clock advances to the boundary and the draw
// restarts — valid with no correction because exponential clocks are
// memoryless (the same argument as PhasedChurn's phase boundaries). The
// burst size is fixed from the population at the burst instant, and every
// burst event carries that same timestamp. Deaths are kUniform: within a
// burst each remaining node is equally likely, so the network's own RNG
// picks victims exactly as for the baseline chain.
//
// Steady state allocates nothing: the process is a handful of scalars.
#pragma once

#include <cstdint>
#include <string>

#include "churn/churn_process.hpp"
#include "common/rng.hpp"

namespace churnet {

class BurstChurn final : public ChurnProcess {
 public:
  enum class Kind : std::uint8_t { kMassFail, kFlashCrowd };

  /// `frac`: burst size as a fraction of the population at the burst
  /// instant (massfail requires frac in (0,1); flashcrowd frac > 0).
  /// `period_lifetimes`: burst spacing in expected lifetimes (> 0).
  BurstChurn(Kind kind, double frac, double period_lifetimes, double lambda,
             double mu, std::uint64_t seed);

  Step next(std::uint64_t alive) override;

  std::string name() const override;
  double mean_lifetime() const override { return 1.0 / mu_; }
  /// The jump-chain convention (multiple / mu), like PoissonJumpChurn.
  double warm_up_time(double multiple) const override {
    return multiple / mu_;
  }

  // ---- introspection (tests, benches) ----------------------------------

  Kind burst_kind() const { return kind_; }
  /// Non-empty bursts fired so far.
  std::uint64_t bursts_fired() const { return bursts_; }
  /// Size of the most recent burst (0 until one fires; empty bursts on a
  /// tiny population record 0 without counting in bursts_fired).
  std::uint64_t last_burst_size() const { return last_burst_size_; }
  /// Absolute time of the next burst boundary.
  double next_burst_time() const { return next_burst_; }

 private:
  Kind kind_;
  double frac_;
  double period_lifetimes_;  // as parsed: name() prints it
  double period_;  // time units between bursts (period_lifetimes / mu)
  double lambda_;
  double mu_;
  double now_ = 0.0;
  double next_burst_;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t last_burst_size_ = 0;
  Rng rng_;
};

}  // namespace churnet
