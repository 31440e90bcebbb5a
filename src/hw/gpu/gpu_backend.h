#pragma once
// GPU omega backend: plugs the simulated device into the scanner. Per grid
// position it mirrors the paper's host flow (Fig. 3, GPU side):
//   1. price the launch from the position's geometry (launch_cost): the
//      dynamic two-kernel dispatch on Nthr (Eq. 4), the combination count
//      and the payload the host would ship;
//   2. when the launch runs a functional kernel, pack the LR / km / TS
//      buffers from M (core::pack_position) with the sub-region order
//      switch — the SNP-richer sub-region becomes the inner loop to
//      maximize coalesced accesses (§IV-B) — and run the chosen kernel on
//      the thread pool; above functional_cap nothing is packed and the host
//      scorer produces the result;
//   3. account the priced device time (timing_model.h) alongside the result.
//
// The order switch is value-neutral (Eq. (2) is symmetric in L and R), so
// results stay comparable with the CPU backend; it matters for the modeled
// memory pattern and is exposed as an ablation toggle.

#include <cstdint>
#include <functional>
#include <memory>

#include "core/scanner.h"
#include "hw/device_specs.h"
#include "hw/gpu/omega_kernels.h"
#include "hw/gpu/timing_model.h"
#include "par/thread_pool.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace omega::hw::gpu {

enum class KernelPolicy { Dynamic, ForceKernel1, ForceKernel2 };

struct GpuBackendOptions {
  KernelPolicy policy = KernelPolicy::Dynamic;
  bool order_switch = true;
  /// Cap on functionally executed combinations per position. Above it no
  /// kernel runs and nothing is packed: host_scorer produces the result
  /// while the launch is still priced and accounted. The cap guards against
  /// accidentally running paper-scale workloads functionally.
  std::uint64_t functional_cap = 1ull << 26;
  /// Deterministic fault injection (util/fault.h); disabled by default.
  /// Injected failures surface as core::BackendError / NaN-poisoned results
  /// for the scan driver's recovery engine.
  util::fault::FaultPlan fault_plan;
  /// When > 0: a position whose modeled device time exceeds this budget
  /// raises a Timeout BackendError (the watchdog a real OpenCL runtime would
  /// apply to a runaway kernel). 0 disables the check.
  double modeled_timeout_seconds = 0.0;
  /// Optional cooperative-cancellation token (util/cancel.h), polled at
  /// launch entry and again between dispatch and the kernel run — the points
  /// a real host would check before committing device work. A cancelled poll
  /// throws util::CancelledError, which the recovery engine deliberately does
  /// NOT retry (it is not a BackendError). Not owned; must outlive the scan.
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

/// One launch priced from the position's geometry alone: the kernel the
/// policy picks (Eq. (4) under Dynamic), the combination count, the payload
/// (core::omega_payload_bytes) and the complete-cost breakdown. The one GPU
/// cost model: the backend's accounting and the hetero planner's GPU
/// partition both price positions through it. All zero for a position with
/// no combinations.
struct LaunchCost {
  KernelChoice kernel = KernelChoice::Kernel1;
  std::uint64_t combinations = 0;
  std::uint64_t payload_bytes = 0;
  CompleteCost cost;
};

[[nodiscard]] LaunchCost launch_cost(const GpuDeviceSpec& spec,
                                     const core::GridPosition& position,
                                     KernelPolicy policy = KernelPolicy::Dynamic);

/// Accumulated device-model accounting for a scan.
struct GpuAccounting {
  double modeled_kernel_seconds = 0.0;
  double modeled_prep_seconds = 0.0;
  double modeled_transfer_seconds = 0.0;
  double modeled_total_seconds = 0.0;
  std::uint64_t positions_kernel1 = 0;
  std::uint64_t positions_kernel2 = 0;
  /// Omega evaluations routed to each kernel by the Eq. (4) dispatcher;
  /// omegas_kernel1 + omegas_kernel2 == omega_evaluations.
  std::uint64_t omegas_kernel1 = 0;
  std::uint64_t omegas_kernel2 = 0;
  std::uint64_t omega_evaluations = 0;
  std::uint64_t bytes_moved = 0;
};

class GpuOmegaBackend final : public core::OmegaBackend {
 public:
  GpuOmegaBackend(const GpuDeviceSpec& spec, par::ThreadPool& pool,
                  GpuBackendOptions options = {});

  [[nodiscard]] std::string name() const override;
  core::OmegaResult max_omega(const core::DpMatrix& m,
                              const core::GridPosition& position) override;
  /// Maps the device-model accounting onto ScanProfile::gpu.
  void contribute(core::ScanProfile& profile) const override;

  [[nodiscard]] const GpuAccounting& accounting() const noexcept {
    return accounting_;
  }
  [[nodiscard]] const util::fault::FaultCounters& fault_counters()
      const noexcept {
    return injector_.counters();
  }

 private:
  GpuDeviceSpec spec_;
  par::ThreadPool& pool_;
  GpuBackendOptions options_;
  GpuAccounting accounting_;
  util::fault::FaultInjector injector_;
};

}  // namespace omega::hw::gpu
