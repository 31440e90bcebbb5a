#pragma once
// FPGA omega backend: drives U simulated pipeline instances through every
// window combination of a grid position, exactly as the synthesized design
// would — outer loop over left borders, inner right-side loop processed U
// iterations per clock, unroll remainder handled in host software. Produces
// bit-identical float omegas to the GPU kernels (same arithmetic order) and
// accumulates the cycle model alongside, priced from the position's geometry
// (launch_cost). Above functional_cap no pipeline runs and nothing is packed:
// the host scorer produces the result and the launch is still accounted.

#include <cstdint>
#include <functional>

#include "core/scanner.h"
#include "hw/device_specs.h"
#include "hw/fpga/cycle_model.h"
#include "hw/fpga/pipeline.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace omega::hw::fpga {

struct FpgaBackendOptions {
  /// Model the TS stream as coming from device DRAM (true for real scans;
  /// the Figs. 10/11 microbenchmarks use on-chip data).
  bool ts_from_dram = true;
  /// Host rate for the unroll-remainder omegas (scores/s); the measured
  /// 1-core OmegaPlus rate is the right value here. Used only for modeled
  /// seconds, never for results.
  double software_omega_rate = 70e6;
  /// Guard against accidentally running paper-scale positions functionally.
  std::uint64_t functional_cap = 1ull << 26;
  /// Deterministic fault injection (util/fault.h); disabled by default.
  /// KernelLaunch here models a failed accelerator enqueue over XRT/DMA.
  util::fault::FaultPlan fault_plan;
  /// When > 0: a position whose modeled accelerator time exceeds this budget
  /// raises a Timeout BackendError. 0 disables the watchdog.
  double modeled_timeout_seconds = 0.0;
  /// Optional cooperative-cancellation token (util/cancel.h), polled at
  /// launch entry and again before the pipeline run. A cancelled poll throws
  /// util::CancelledError, which the recovery engine deliberately does NOT
  /// retry (it is not a BackendError). Not owned; must outlive the scan.
  const util::CancelToken* cancel = nullptr;
  /// Scorer for positions above functional_cap (default: the scalar
  /// core::max_omega_search reference). The heterogeneous co-scheduler sets
  /// functional_cap = 0 and injects the scan's dispatched CPU kernel here so
  /// accelerator partitions score bitwise-identically to the CPU partition
  /// (the kernel bodies agree only up to summation-order ULPs).
  std::function<core::OmegaResult(const core::DpMatrix&,
                                  const core::GridPosition&)>
      host_scorer;
};

/// One position priced from its geometry alone: the cycle model over its
/// border counts (position_cycles) plus the unroll remainder at the host
/// rate. The one FPGA cost model: the backend's accounting and the hetero
/// planner's FPGA partition both price positions through it. All zero for a
/// position with no combinations.
struct LaunchCost {
  PositionCycles cycles;
  /// The share of cycles.hw_cycles above the ideal one-group-per-clock
  /// schedule (DRAM throttling).
  std::uint64_t stall_cycles = 0;
  double hw_seconds = 0.0;
  double sw_seconds = 0.0;
  [[nodiscard]] double total_seconds() const noexcept {
    return hw_seconds + sw_seconds;
  }
};

[[nodiscard]] LaunchCost launch_cost(const FpgaDeviceSpec& spec,
                                     const core::GridPosition& position,
                                     const FpgaBackendOptions& options);

struct FpgaAccounting {
  std::uint64_t modeled_cycles = 0;
  /// Cycles the inner loop lost to DRAM throttling (the stall_factor share
  /// of modeled_cycles above the ideal one-group-per-clock rate).
  std::uint64_t stall_cycles = 0;
  std::uint64_t hw_omegas = 0;
  std::uint64_t sw_omegas = 0;
  double modeled_hw_seconds = 0.0;
  double modeled_sw_seconds = 0.0;
  [[nodiscard]] double modeled_total_seconds() const noexcept {
    return modeled_hw_seconds + modeled_sw_seconds;
  }
};

class FpgaOmegaBackend final : public core::OmegaBackend {
 public:
  explicit FpgaOmegaBackend(const FpgaDeviceSpec& spec,
                            FpgaBackendOptions options = {});

  [[nodiscard]] std::string name() const override;
  core::OmegaResult max_omega(const core::DpMatrix& m,
                              const core::GridPosition& position) override;
  /// Maps the cycle-model accounting onto ScanProfile::fpga.
  void contribute(core::ScanProfile& profile) const override;

  [[nodiscard]] const FpgaAccounting& accounting() const noexcept {
    return accounting_;
  }
  [[nodiscard]] const util::fault::FaultCounters& fault_counters()
      const noexcept {
    return injector_.counters();
  }

 private:
  FpgaDeviceSpec spec_;
  FpgaBackendOptions options_;
  FpgaAccounting accounting_;
  util::fault::FaultInjector injector_;
};

}  // namespace omega::hw::fpga
