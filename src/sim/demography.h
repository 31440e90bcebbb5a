#pragma once
// Piecewise-constant population-size history for the coalescent. The power
// studies the paper builds on (Crisci et al.) evaluate sweep detectors under
// *non-equilibrium* neutral models — bottlenecks and expansions — because
// those mimic sweep signatures and inflate false positives; supporting them
// makes the simulator usable for the same analyses.
//
// Time runs backward from the present in units of 2N0 generations; sizes are
// relative to N0. With k lineages at time t the coalescence rate is
// C(k,2) / size(t), so an epoch of size 0.1 coalesces 10x faster.

#include <vector>

#include "util/prng.h"

namespace omega::sim {

struct Epoch {
  double start_time = 0.0;    // backward time at which this epoch begins
  double relative_size = 1.0; // population size relative to N0
};

class Demography {
 public:
  /// Equilibrium (constant size 1).
  Demography() = default;
  /// Epochs must have strictly increasing start times; the first must start
  /// at 0. Throws std::invalid_argument otherwise.
  explicit Demography(std::vector<Epoch> epochs);

  /// Relative size at backward time t.
  [[nodiscard]] double size_at(double t) const noexcept;

  /// Samples the waiting time from `now` until an event that occurs with
  /// instantaneous rate `base_rate / size(t)` (time-change of a unit
  /// exponential across the piecewise-constant epochs).
  [[nodiscard]] double waiting_time(double now, double base_rate,
                                    util::Xoshiro256& rng) const;

  /// Epoch boundary times after `now` and at or below `horizon` (the SMC'
  /// interval walk inserts these as rate-change events).
  [[nodiscard]] std::vector<double> boundaries_between(double now,
                                                       double horizon) const;

  [[nodiscard]] bool is_equilibrium() const noexcept {
    return epochs_.size() == 1 && epochs_.front().relative_size == 1.0;
  }

  /// Convenience factory for the classic bottleneck scenario.
  static Demography bottleneck(double start, double duration, double severity);

 private:
  std::vector<Epoch> epochs_{{0.0, 1.0}};
};

}  // namespace omega::sim
