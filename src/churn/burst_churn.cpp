#include "churn/burst_churn.hpp"

#include "common/assertx.hpp"
#include "common/specgram.hpp"

namespace churnet {

BurstChurn::BurstChurn(Kind kind, double frac, double period_lifetimes,
                       double lambda, double mu, std::uint64_t seed)
    : kind_(kind),
      frac_(frac),
      period_lifetimes_(period_lifetimes),
      period_(period_lifetimes / mu),
      lambda_(lambda),
      mu_(mu),
      next_burst_(period_lifetimes / mu),
      rng_(seed) {
  CHURNET_EXPECTS(lambda > 0.0);
  CHURNET_EXPECTS(mu > 0.0);
  CHURNET_EXPECTS(period_lifetimes > 0.0);
  // A massfail fraction of 1 would kill the whole network inside one burst
  // (the burst size is fixed up front, so the last death would hit an
  // empty graph); flash crowds only need a positive fraction.
  if (kind == Kind::kMassFail) {
    CHURNET_EXPECTS(frac > 0.0 && frac < 1.0);
  } else {
    CHURNET_EXPECTS(frac > 0.0);
  }
}

std::string BurstChurn::name() const {
  const char* base = kind_ == Kind::kMassFail ? "massfail(" : "flashcrowd(";
  return base + fmt_spec_arg(frac_) + "," + fmt_spec_arg(period_lifetimes_) +
         ")";
}

ChurnProcess::Step BurstChurn::next(std::uint64_t alive) {
  Step step;
  step.victim = Victim::kUniform;
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    step.time = now_;
    step.is_birth = kind_ == Kind::kFlashCrowd;
    return step;
  }
  for (;;) {
    const double death_rate = mu_ * static_cast<double>(alive);
    const double total_rate = lambda_ + death_rate;
    const double t = now_ + rng_.exponential(total_rate);
    if (t >= next_burst_) {
      // The boundary preempts the sampled wait; restarting the draw past
      // it is exact because exponential clocks are memoryless.
      now_ = next_burst_;
      next_burst_ += period_;
      last_burst_size_ =
          static_cast<std::uint64_t>(frac_ * static_cast<double>(alive));
      if (last_burst_size_ == 0) continue;  // population too small to burst
      ++bursts_;
      burst_remaining_ = last_burst_size_ - 1;
      step.time = now_;
      step.is_birth = kind_ == Kind::kFlashCrowd;
      return step;
    }
    now_ = t;
    step.time = now_;
    step.is_birth = rng_.bernoulli(lambda_ / total_rate);
    return step;
  }
}

}  // namespace churnet
