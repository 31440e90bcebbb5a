#pragma once
// Monotonic wall-clock timer for intervals that are not scan stages —
// scheduler busy time, cancellation latency, the benchmark harness. Scan
// stages are timed by their stage probe (util/probe.h).

#include <chrono>

namespace omega::util {

class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace omega::util
