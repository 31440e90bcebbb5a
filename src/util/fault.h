#pragma once
// Deterministic fault-injection layer for the simulated accelerator backends.
//
// Real deployments of the paper's OmegaPlus port hit transient accelerator
// failures — OpenCL kernel launches that return an error, DMA transfers that
// time out, pipelines that emit NaN under marginal timing, devices that drop
// off the bus mid-scan. The simulators reproduce those modes on demand so the
// scan driver's recovery policy (core/resilience.h) can be exercised and
// regression-tested without hardware.
//
// Everything is PRNG-seeded and replayable: a (plan, call-sequence) pair
// always yields the same fault schedule, so tests can assert exact counter
// values and bit-identical recovered results.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/prng.h"

namespace omega::util::fault {

/// Failure modes the injector can produce. `Mixed` draws uniformly among the
/// three transient modes per injected fault.
enum class FaultMode {
  None,
  KernelLaunch,  // launch/enqueue returns an error before any work happens
  Timeout,       // the modeled device time exceeded its budget
  TransientNan,  // the kernel "completes" but the result is NaN-poisoned
  DeviceLost,    // the device drops permanently; every later call fails
  Mixed,         // plan-level only: random transient mode per fault
};

/// Parses "none|kernel-launch|timeout|nan|device-lost|mixed"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] FaultMode mode_from_name(std::string_view name);

/// Declarative fault schedule, configurable from the CLI.
struct FaultPlan {
  FaultMode mode = FaultMode::None;
  /// Per-call injection probability in [0, 1] while inside the window.
  double rate = 0.0;
  std::uint64_t seed = 0x5eedULL;
  /// Calls with 0-based index in [window_begin, window_end) are eligible.
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = UINT64_MAX;
  /// When > 0, the device is lost at the N-th call (1-based) regardless of
  /// `mode`/`rate`: that call and every later one fail with DeviceLost.
  std::uint64_t device_lost_after = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return (mode != FaultMode::None && rate > 0.0) || device_lost_after > 0;
  }
  /// Throws std::invalid_argument on a malformed plan (rate outside [0,1],
  /// empty window).
  void validate() const;
};

struct FaultCounters {
  std::uint64_t calls = 0;
  std::uint64_t injected_kernel_launch = 0;
  std::uint64_t injected_timeout = 0;
  std::uint64_t injected_nan = 0;
  std::uint64_t injected_device_lost = 0;
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    return injected_kernel_launch + injected_timeout + injected_nan +
           injected_device_lost;
  }
};

/// Per-backend-instance fault source. Not thread-safe by design: each scan
/// worker owns its backend, and each backend owns its injector, so the
/// schedule is deterministic per worker for a fixed chunk layout.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  /// Draws the fault decision for the next backend call. Returns None for
  /// the (common) healthy call; once DeviceLost fires, every subsequent call
  /// returns DeviceLost.
  FaultMode next();

  [[nodiscard]] const FaultCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool device_lost() const noexcept { return device_lost_; }

 private:
  FaultPlan plan_;
  Xoshiro256 rng_;
  std::uint64_t call_ = 0;
  bool device_lost_ = false;
  FaultCounters counters_;
};

}  // namespace omega::util::fault
