#include "hw/accelerators.h"

#include <utility>

#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gpu_backend.h"
#include "par/thread_pool.h"

namespace omega::hw {

namespace {

using BackendFactory = std::function<std::unique_ptr<core::OmegaBackend>()>;

/// Scorer for the positions no functional launch runs: the scan's
/// dispatched CPU kernel. One CpuOmegaBackend per accelerator backend (it
/// owns mutable kernel scratch, and each scan worker owns its backend).
std::function<core::OmegaResult(const core::DpMatrix&,
                                const core::GridPosition&)>
make_host_scorer(core::CpuKernelKind kernel) {
  auto scorer = std::make_shared<core::CpuOmegaBackend>(kernel);
  return [scorer = std::move(scorer)](const core::DpMatrix& m,
                                      const core::GridPosition& position) {
    return scorer->max_omega(m, position);
  };
}

BackendFactory gpu_factory(const GpuDeviceSpec& spec,
                           const gpu::GpuBackendOptions& backend_options,
                           core::CpuKernelKind kernel,
                           std::shared_ptr<par::ThreadPool> pool) {
  return [spec, backend_options, kernel, pool = std::move(pool)] {
    gpu::GpuBackendOptions options = backend_options;
    options.host_scorer = make_host_scorer(kernel);
    return std::unique_ptr<core::OmegaBackend>(
        std::make_unique<gpu::GpuOmegaBackend>(spec, *pool, options));
  };
}

BackendFactory fpga_factory(const FpgaDeviceSpec& spec,
                            const fpga::FpgaBackendOptions& backend_options,
                            core::CpuKernelKind kernel) {
  return [spec, backend_options, kernel] {
    fpga::FpgaBackendOptions options = backend_options;
    options.host_scorer = make_host_scorer(kernel);
    return std::unique_ptr<core::OmegaBackend>(
        std::make_unique<fpga::FpgaOmegaBackend>(spec, options));
  };
}

/// The CPU + tesla_k80 GPU-sim + alveo_u200 FPGA-sim partition set. Each
/// accelerator partition is priced by the launch_cost its backend accounts
/// with, over the same options, so a fault-free partition's planned
/// modeled_seconds equals its device's accounted seconds.
core::HeteroConfig default_hetero_config(
    const AcceleratorOptions& options,
    const gpu::GpuBackendOptions& gpu_options,
    const fpga::FpgaBackendOptions& fpga_options,
    std::shared_ptr<par::ThreadPool> gpu_pool) {
  core::HeteroConfig config;
  config.split = options.split;

  // The CPU partition is priced at the host rate the FPGA charges for its
  // unroll remainder (the measured 1-core OmegaPlus rate).
  const double cpu_rate = fpga_options.software_omega_rate;
  config.cpu_modeled_seconds = [cpu_rate](const core::GridPosition& position) {
    return static_cast<double>(position.combinations()) / cpu_rate;
  };

  const GpuDeviceSpec gpu_spec = tesla_k80();
  core::HeteroPartitionSpec gpu_part;
  gpu_part.name = "gpu-sim:" + gpu_spec.name;
  gpu_part.modeled_seconds = [gpu_spec, policy = gpu_options.policy](
                                 const core::GridPosition& position) {
    return gpu::launch_cost(gpu_spec, position, policy).cost.total_s;
  };
  gpu_part.backend_factory = gpu_factory(gpu_spec, gpu_options,
                                         options.cpu_kernel,
                                         std::move(gpu_pool));
  config.accelerators.push_back(std::move(gpu_part));

  const FpgaDeviceSpec fpga_spec = alveo_u200();
  core::HeteroPartitionSpec fpga_part;
  fpga_part.name = "fpga-sim:" + fpga_spec.name;
  fpga_part.modeled_seconds = [fpga_spec, fpga_options](
                                  const core::GridPosition& position) {
    return fpga::launch_cost(fpga_spec, position, fpga_options)
        .total_seconds();
  };
  fpga_part.backend_factory =
      fpga_factory(fpga_spec, fpga_options, options.cpu_kernel);
  config.accelerators.push_back(std::move(fpga_part));
  return config;
}

}  // namespace

Accelerator make_accelerator(const AcceleratorOptions& options) {
  gpu::GpuBackendOptions gpu_options;
  gpu_options.fault_plan = options.fault_plan;
  gpu_options.cancel = options.cancel;
  gpu_options.modeled_timeout_seconds = options.modeled_timeout_seconds;
  fpga::FpgaBackendOptions fpga_options;
  fpga_options.fault_plan = options.fault_plan;
  fpga_options.cancel = options.cancel;
  fpga_options.modeled_timeout_seconds = options.modeled_timeout_seconds;

  Accelerator accelerator;
  switch (options.kind) {
    case AcceleratorKind::Gpu: {
      // The simulated compute units: one pool thread per host core.
      const GpuDeviceSpec spec = tesla_k80();
      accelerator.name = "gpu-sim:" + spec.name;
      accelerator.backend_factory =
          gpu_factory(spec, gpu_options, options.cpu_kernel,
                      std::make_shared<par::ThreadPool>());
      break;
    }
    case AcceleratorKind::Fpga: {
      const FpgaDeviceSpec spec = alveo_u200();
      accelerator.name = "fpga-sim:" + spec.name;
      accelerator.backend_factory =
          fpga_factory(spec, fpga_options, options.cpu_kernel);
      break;
    }
    case AcceleratorKind::Hetero:
      // Exact scoring: with functional_cap = 0 no launch packs or runs a
      // kernel, so the GPU partition's pool never receives work and one
      // thread backs it.
      gpu_options.functional_cap = 0;
      fpga_options.functional_cap = 0;
      accelerator.name = "hetero";
      accelerator.hetero =
          default_hetero_config(options, gpu_options, fpga_options,
                                std::make_shared<par::ThreadPool>(1));
      break;
  }
  return accelerator;
}

}  // namespace omega::hw
