#pragma once
// The one place simulated accelerators are built. omegaplus_scan's
// --backend gpu|fpga|hetero and sweep::detect_sweeps(GpuSim|FpgaSim|Hetero)
// both call make_accelerator, so both front ends run the same devices:
//   * Gpu    — the Tesla K80 GPU-sim (dynamic two-kernel timing model) on a
//              thread pool the returned Accelerator owns;
//   * Fpga   — the Alveo U200 FPGA-sim (cycle model);
//   * Hetero — both beside the CPU span engine under the co-scheduler
//              (core/hetero_scheduler.h). Each accelerator partition is
//              priced by the launch_cost its backend accounts with, so the
//              planner and the device agree on every position's cost.
//
// Every accelerator gets the caller's fault plan, cancel token, modeled
// timeout and CPU kernel; the CPU kernel scores the positions no functional
// launch runs (above functional_cap). Hetero sets the cap to 0: its
// accelerators pack nothing and score through the scan's dispatched CPU
// kernel, the body the CPU partition runs, while the device cost models,
// fault injection and accounting still accrue. That is what keeps a hetero
// scan bitwise-identical to the plain CPU scan for any split.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/hetero_scheduler.h"
#include "core/scanner.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace omega::hw {

enum class AcceleratorKind { Gpu, Fpga, Hetero };

struct AcceleratorOptions {
  AcceleratorKind kind = AcceleratorKind::Gpu;
  /// Hetero only: auto (modeled throughput) or fixed cpu:gpu:fpga weights.
  core::HeteroSplit split;
  /// Deterministic fault injection applied to every accelerator.
  util::fault::FaultPlan fault_plan;
  /// Cooperative-cancellation token polled inside every launch. Not owned;
  /// must outlive every scan using the accelerator.
  const util::CancelToken* cancel = nullptr;
  /// Per-position modeled device-time budget; 0 disables the watchdog.
  double modeled_timeout_seconds = 0.0;
  /// The CPU omega kernel the scan runs (ScannerOptions::cpu_kernel).
  core::CpuKernelKind cpu_kernel = core::CpuKernelKind::Auto;
};

/// What make_accelerator built. Owns everything its factories capture (the
/// GPU pool included); must outlive every scan that uses it.
struct Accelerator {
  /// Display name: the device ("gpu-sim:tesla_k80", "fpga-sim:alveo_u200")
  /// or "hetero".
  std::string name;
  /// Gpu and Fpga: one backend per scan worker, the factory core::scan and
  /// core::stream_scan take. Empty for Hetero.
  std::function<std::unique_ptr<core::OmegaBackend>()> backend_factory;
  /// Hetero: the co-scheduler config ScannerOptions::hetero points at.
  std::optional<core::HeteroConfig> hetero;
};

[[nodiscard]] Accelerator make_accelerator(const AcceleratorOptions& options);

}  // namespace omega::hw
