#pragma once
// Measured-throughput estimation for the scan schedulers
// (docs/OBSERVABILITY.md § Measured rates).
//
// The hetero planner splits the grid by *modeled* partition throughput
// (hw/accelerators); this estimator supplies the measured side of that
// comparison: an exponentially weighted moving average of positions/second
// folded in once per plan execution (hetero partitions) or once per claimed
// span (span-engine workers). The EWMA — rather than a plain total/elapsed
// ratio — keeps the estimate responsive to drift (thermal throttling, a
// loaded host, faulted spans re-dispatched mid-scan) while damping
// single-observation noise, which is what a future mid-scan re-planner needs
// (ROADMAP items 3/5). Estimates surface as telemetry gauges and in the
// metrics schema v11 "hetero" partition entries next to the modeled seconds.

#include <cstdint>

namespace omega::core {

/// EWMA of observed throughput in positions/second. Not thread-safe: each
/// worker / partition owns its estimator.
class RateEstimator {
 public:
  /// `alpha` is the weight of a new observation (0 < alpha <= 1); the first
  /// observation seeds the average outright.
  explicit RateEstimator(double alpha = 0.3) noexcept;

  /// Folds one observation in. Observations with non-positive elapsed time
  /// or zero positions carry no rate signal and are ignored.
  void observe(std::uint64_t positions, double seconds) noexcept;

  /// Current estimate; 0.0 until the first accepted observation.
  [[nodiscard]] double rate_per_s() const noexcept { return ewma_; }
  [[nodiscard]] std::uint64_t observations() const noexcept {
    return observations_;
  }

 private:
  double alpha_;
  double ewma_ = 0.0;
  std::uint64_t observations_ = 0;
};

}  // namespace omega::core
