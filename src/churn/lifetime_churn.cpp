#include "churn/lifetime_churn.hpp"

#include <cmath>

#include "common/assertx.hpp"
#include "common/specgram.hpp"

namespace churnet {

LifetimeChurn::LifetimeChurn(LifetimeLaw law, double lambda, double mu,
                             std::uint64_t seed)
    : law_(law), lambda_(lambda), mu_(mu), rng_(seed) {
  CHURNET_EXPECTS(lambda > 0.0);
  CHURNET_EXPECTS(mu > 0.0);
  switch (law_.kind) {
    case LifetimeLaw::Kind::kPareto:
      // Mean of Pareto(alpha, xmin) is alpha*xmin/(alpha-1); solve for xmin.
      CHURNET_EXPECTS(law_.shape > 1.0);
      scale_ = (law_.shape - 1.0) / (law_.shape * mu_);
      break;
    case LifetimeLaw::Kind::kWeibull:
      // Mean of Weibull(k, scale) is scale * Gamma(1 + 1/k).
      CHURNET_EXPECTS(law_.shape > 0.0);
      scale_ = 1.0 / (mu_ * std::tgamma(1.0 + 1.0 / law_.shape));
      break;
  }
}

double LifetimeChurn::sample_lifetime() {
  switch (law_.kind) {
    case LifetimeLaw::Kind::kPareto:
      return rng_.pareto(law_.shape, scale_);
    case LifetimeLaw::Kind::kWeibull:
      return rng_.weibull(law_.shape, scale_);
  }
  CHURNET_ASSERT(false);
  return 0.0;
}

ChurnProcess::Step LifetimeChurn::next(std::uint64_t alive) {
  (void)alive;  // expiries are scheduled per node; no population coupling
  if (!birth_time_valid_) {
    next_birth_ = now_ + rng_.exponential(lambda_);
    birth_time_valid_ = true;
  }
  Step step;
  if (!expiries_.empty() && expiries_.top().time <= next_birth_) {
    const Expiry expiry = expiries_.top();
    expiries_.pop();
    now_ = expiry.time;
    step.time = expiry.time;
    step.is_birth = false;
    step.victim = Victim::kScheduled;
    step.victim_id = expiry.id;
    return step;
  }
  now_ = next_birth_;
  birth_time_valid_ = false;
  step.time = now_;
  step.is_birth = true;
  return step;
}

void LifetimeChurn::on_birth(NodeId id, double time) {
  expiries_.push(Expiry{time + sample_lifetime(), id});
}

std::string LifetimeChurn::name() const {
  const char* base =
      law_.kind == LifetimeLaw::Kind::kPareto ? "pareto" : "weibull";
  return std::string(base) + "(" + fmt_spec_arg(law_.shape) + ")";
}

}  // namespace churnet
