#include "util/fault.h"

#include <stdexcept>

namespace omega::util::fault {

FaultMode mode_from_name(std::string_view name) {
  if (name == "none") return FaultMode::None;
  if (name == "kernel-launch") return FaultMode::KernelLaunch;
  if (name == "timeout") return FaultMode::Timeout;
  if (name == "nan") return FaultMode::TransientNan;
  if (name == "device-lost") return FaultMode::DeviceLost;
  if (name == "mixed") return FaultMode::Mixed;
  throw std::invalid_argument("fault: unknown mode '" + std::string(name) +
                              "' (expected none|kernel-launch|timeout|nan|"
                              "device-lost|mixed)");
}

void FaultPlan::validate() const {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("fault: rate must be in [0, 1]");
  }
  if (window_begin >= window_end) {
    throw std::invalid_argument("fault: empty trigger window");
  }
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), rng_(plan.seed) {
  plan_.validate();
}

FaultMode FaultInjector::next() {
  const std::uint64_t index = call_++;
  ++counters_.calls;

  // A lost device never comes back: fail every call after the trigger.
  if (device_lost_ ||
      (plan_.device_lost_after > 0 && call_ >= plan_.device_lost_after)) {
    device_lost_ = true;
    ++counters_.injected_device_lost;
    return FaultMode::DeviceLost;
  }

  if (plan_.mode == FaultMode::None || plan_.rate <= 0.0) return FaultMode::None;
  if (index < plan_.window_begin || index >= plan_.window_end) {
    return FaultMode::None;
  }
  // Always consume exactly one uniform per eligible call so the schedule is
  // independent of which faults actually fired before it.
  const double draw = rng_.uniform();
  if (draw >= plan_.rate) return FaultMode::None;

  FaultMode mode = plan_.mode;
  if (mode == FaultMode::Mixed) {
    switch (rng_.bounded(3)) {
      case 0: mode = FaultMode::KernelLaunch; break;
      case 1: mode = FaultMode::Timeout; break;
      default: mode = FaultMode::TransientNan; break;
    }
  }
  switch (mode) {
    case FaultMode::KernelLaunch: ++counters_.injected_kernel_launch; break;
    case FaultMode::Timeout: ++counters_.injected_timeout; break;
    case FaultMode::TransientNan: ++counters_.injected_nan; break;
    case FaultMode::DeviceLost:
      device_lost_ = true;
      ++counters_.injected_device_lost;
      break;
    default: break;
  }
  return mode;
}

}  // namespace omega::util::fault
