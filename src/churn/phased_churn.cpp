#include "churn/phased_churn.hpp"

#include <limits>
#include <utility>

#include "common/assertx.hpp"
#include "common/specgram.hpp"

namespace churnet {

PhasedChurn::PhasedChurn(std::string name, std::vector<ChurnPhase> phases,
                         bool cycle, double mean_lifetime, std::uint64_t seed)
    : name_(std::move(name)),
      phases_(std::move(phases)),
      cycle_(cycle),
      mean_lifetime_(mean_lifetime),
      rng_(seed) {
  CHURNET_EXPECTS(!phases_.empty());
  CHURNET_EXPECTS(mean_lifetime_ > 0.0);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    CHURNET_EXPECTS(phases_[i].lambda > 0.0);
    CHURNET_EXPECTS(phases_[i].mu > 0.0);
    // Every phase that ever ends needs positive length, or next() would
    // live-lock advancing phases without moving the clock. The last phase
    // of a non-cycling schedule never ends, so its duration is free.
    const bool terminal = !cycle_ && i + 1 == phases_.size();
    CHURNET_EXPECTS(terminal || phases_[i].duration > 0.0);
  }
}

double PhasedChurn::phase_end() const {
  const bool terminal = !cycle_ && phase_ + 1 == phases_.size();
  if (terminal) return std::numeric_limits<double>::infinity();
  return phase_start_ + phases_[phase_].duration;
}

ChurnProcess::Step PhasedChurn::next(std::uint64_t alive) {
  for (;;) {
    const ChurnPhase& phase = phases_[phase_];
    const double total_rate =
        phase.lambda + phase.mu * static_cast<double>(alive);
    const double wait = rng_.exponential(total_rate);
    const double boundary = phase_end();
    if (now_ + wait >= boundary) {
      // The draw crossed into the next phase: advance to the boundary and
      // resample under the new rates (exact by memorylessness).
      now_ = boundary;
      phase_start_ = boundary;
      phase_ = phase_ + 1 == phases_.size() ? (cycle_ ? 0 : phase_)
                                            : phase_ + 1;
      continue;
    }
    now_ += wait;
    Step step;
    step.time = now_;
    step.is_birth = rng_.bernoulli(phase.lambda / total_rate);
    step.victim = Victim::kUniform;
    return step;
  }
}

PhasedChurn make_bursty_churn(double boost, double phase_lifetimes,
                              double lambda, double mu, std::uint64_t seed) {
  CHURNET_EXPECTS(boost > 1.0);
  CHURNET_EXPECTS(phase_lifetimes > 0.0);
  const double phase_duration = phase_lifetimes / mu;
  std::vector<ChurnPhase> phases{
      ChurnPhase{phase_duration, lambda, mu * boost},  // burst: mass deaths
      ChurnPhase{phase_duration, lambda, mu / boost},  // calm: recovery
  };
  return PhasedChurn("bursty(" + fmt_spec_arg(boost) + "," +
                         fmt_spec_arg(phase_lifetimes) + ")",
                     std::move(phases), /*cycle=*/true,
                     /*mean_lifetime=*/1.0 / mu, seed);
}

PhasedChurn make_drift_churn(double growth, double lambda, double mu,
                             std::uint64_t seed) {
  CHURNET_EXPECTS(growth > 0.0);
  // Phase 0 covers exactly the standard warm_up(10.0) horizon, so the
  // network warms to the (lambda, mu) stationary size and every measurement
  // after warm-up happens mid-drift toward growth*lambda/mu.
  std::vector<ChurnPhase> phases{
      ChurnPhase{10.0 / mu, lambda, mu},
      ChurnPhase{0.0, lambda * growth, mu},  // terminal: never ends
  };
  return PhasedChurn("drift(" + fmt_spec_arg(growth) + ")",
                     std::move(phases), /*cycle=*/false,
                     /*mean_lifetime=*/1.0 / mu, seed);
}

}  // namespace churnet
