#include "core/rate_estimator.h"

namespace omega::core {

RateEstimator::RateEstimator(double alpha) noexcept
    : alpha_(alpha > 0.0 && alpha <= 1.0 ? alpha : 0.3) {}

void RateEstimator::observe(std::uint64_t positions,
                            double seconds) noexcept {
  if (positions == 0 || !(seconds > 0.0)) return;
  const double rate = static_cast<double>(positions) / seconds;
  ewma_ = observations_ == 0 ? rate : alpha_ * rate + (1.0 - alpha_) * ewma_;
  ++observations_;
}

}  // namespace omega::core
