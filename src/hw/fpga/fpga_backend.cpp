#include "hw/fpga/fpga_backend.h"

#include <limits>
#include <vector>

#include "core/omega_search.h"
#include "core/resilience.h"
#include "util/probe.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::hw::fpga {

LaunchCost launch_cost(const FpgaDeviceSpec& spec,
                       const core::GridPosition& position,
                       const FpgaBackendOptions& options) {
  LaunchCost launch;
  launch.cycles = position_cycles(spec, position.left_borders(),
                                  position.right_borders(),
                                  options.ts_from_dram);
  if (launch.cycles.stall_factor > 1.0) {
    const double throttled = static_cast<double>(launch.cycles.hw_cycles) -
                             spec.pipeline_latency_cycles -
                             spec.prefetch_cycles;
    launch.stall_cycles = static_cast<std::uint64_t>(
        throttled * (1.0 - 1.0 / launch.cycles.stall_factor));
  }
  launch.hw_seconds =
      static_cast<double>(launch.cycles.hw_cycles) / spec.clock_hz;
  launch.sw_seconds = static_cast<double>(launch.cycles.sw_omegas) /
                      options.software_omega_rate;
  return launch;
}

FpgaOmegaBackend::FpgaOmegaBackend(const FpgaDeviceSpec& spec,
                                   FpgaBackendOptions options)
    : spec_(spec), options_(options), injector_(options.fault_plan) {}

std::string FpgaOmegaBackend::name() const { return "fpga-sim:" + spec_.name; }

core::OmegaResult FpgaOmegaBackend::max_omega(
    const core::DpMatrix& m, const core::GridPosition& position) {
  const util::trace::Span span("fpga.position");
  core::OmegaResult result;
  if (!position.valid) return result;

  // Cancel poll before committing any host work; CancelledError bypasses the
  // recovery engine (not a BackendError) and propagates to the drain path.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw util::CancelledError(options_.cancel->reason());
  }

  // Fault hook: failures fire before any pipeline work or accounting, the
  // way a failed XRT enqueue / DMA transfer would.
  bool poison_result = false;
  switch (injector_.next()) {
    case util::fault::FaultMode::KernelLaunch:
      throw core::BackendError(core::BackendErrorKind::KernelLaunch, name(),
                               "injected accelerator-enqueue failure");
    case util::fault::FaultMode::Timeout:
      throw core::BackendError(core::BackendErrorKind::Timeout, name(),
                               "injected accelerator timeout");
    case util::fault::FaultMode::DeviceLost:
      throw core::BackendError(core::BackendErrorKind::DeviceLost, name(),
                               "injected device loss");
    case util::fault::FaultMode::TransientNan:
      poison_result = true;
      break;
    default:
      break;
  }

  // The host side of the run is the FPGA dispatch stage: price it from the
  // geometry and, only when the pipelines will run, pack the streamed
  // buffers. Runs for every valid position, empty ones included.
  const std::uint64_t combos = position.combinations();
  const bool functional = combos != 0 && combos <= options_.functional_cap;
  LaunchCost launch;
  core::PositionBuffers buffers;
  {
    static const util::probe::Site kDispatch("fpga.dispatch",
                                             "fpga.dispatch_seconds");
    const util::probe::Stage stage(kDispatch);
    launch = launch_cost(spec_, position, options_);
    if (functional) buffers = core::pack_position(m, position);
  }
  if (combos == 0) return result;

  // Second poll before the pipeline run — the last abandon point before the
  // accelerator would start consuming the streamed buffers.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw util::CancelledError(options_.cancel->reason());
  }

  const auto unroll = static_cast<std::size_t>(spec_.unroll_factor);
  float best = 0.0f;
  std::uint64_t best_flat = 0;
  bool found = false;
  auto consider = [&](float omega, std::uint64_t flat) {
    if (!found || omega > best || (omega == best && flat < best_flat)) {
      best = omega;
      best_flat = flat;
      found = true;
    }
  };

  if (functional) {
    std::vector<OmegaPipeline> lanes(unroll);
    auto make_input = [&](std::size_t ai, std::size_t bi) {
      PipelineInput input;
      const std::uint64_t flat =
          static_cast<std::uint64_t>(ai) * buffers.num_right + bi;
      input.total_sum = buffers.total[flat];
      input.left_sum = buffers.ls[ai];
      input.right_sum = buffers.rs[bi];
      input.k = buffers.k[ai];
      input.m = buffers.m_binom[bi];
      input.l = buffers.l_counts[ai];
      input.r = buffers.r_counts[bi];
      input.tag = flat;
      return input;
    };

    const std::size_t groups = buffers.num_right / unroll;
    for (std::size_t ai = 0; ai < buffers.num_left; ++ai) {
      // Hardware part: U lanes consume U consecutive right borders per clock.
      for (std::size_t group = 0; group < groups; ++group) {
        for (std::size_t lane = 0; lane < unroll; ++lane) {
          const PipelineInput input = make_input(ai, group * unroll + lane);
          if (const auto out = lanes[lane].tick(&input)) {
            consider(out->omega, out->tag);
          }
        }
      }
      // Software remainder (paper §V): same arithmetic, host-side.
      for (std::size_t bi = groups * unroll; bi < buffers.num_right; ++bi) {
        consider(pipeline_arithmetic(make_input(ai, bi)),
                 static_cast<std::uint64_t>(ai) * buffers.num_right + bi);
      }
    }
    // Drain in-flight values.
    for (auto& lane : lanes) {
      while (!lane.drained()) {
        if (const auto out = lane.tick(nullptr)) consider(out->omega, out->tag);
      }
    }
    result.max_omega = static_cast<double>(best);
    const std::size_t ai = static_cast<std::size_t>(best_flat / buffers.num_right);
    const std::size_t bi = static_cast<std::size_t>(best_flat % buffers.num_right);
    result.best_a = position.lo + ai;
    result.best_b = position.b_min + bi;
    result.evaluated = combos;
  } else {
    result = options_.host_scorer ? options_.host_scorer(m, position)
                                  : core::max_omega_search(m, position);
  }

  // Modeled watchdog: enforce the per-position device-time budget before any
  // accounting, treating an over-budget position as a failed run.
  if (options_.modeled_timeout_seconds > 0.0 &&
      launch.total_seconds() > options_.modeled_timeout_seconds) {
    throw core::BackendError(core::BackendErrorKind::Timeout, name(),
                             "modeled accelerator time exceeded budget");
  }
  if (poison_result && result.evaluated > 0) {
    result.max_omega = std::numeric_limits<double>::quiet_NaN();
  }
  accounting_.modeled_cycles += launch.cycles.hw_cycles;
  accounting_.stall_cycles += launch.stall_cycles;
  accounting_.hw_omegas += launch.cycles.hw_omegas;
  accounting_.sw_omegas += launch.cycles.sw_omegas;
  accounting_.modeled_hw_seconds += launch.hw_seconds;
  accounting_.modeled_sw_seconds += launch.sw_seconds;
  // One sample per completed position run (watchdog-killed runs excluded),
  // the FPGA analogue of gpu.launch_modeled_seconds.
  static util::telemetry::Histogram& launch_hist =
      util::telemetry::histogram("fpga.launch_modeled_seconds");
  launch_hist.record(launch.total_seconds());
  return result;
}

void FpgaOmegaBackend::contribute(core::ScanProfile& profile) const {
  profile.fpga.pipeline_cycles += accounting_.modeled_cycles;
  profile.fpga.stall_cycles += accounting_.stall_cycles;
  profile.fpga.hw_omegas += accounting_.hw_omegas;
  profile.fpga.sw_omegas += accounting_.sw_omegas;
  profile.fpga.modeled_seconds += accounting_.modeled_total_seconds();
  const auto& faults = injector_.counters();
  profile.faults.faults_injected += faults.total_injected();
  profile.faults.injected_kernel_launch += faults.injected_kernel_launch;
  profile.faults.injected_timeout += faults.injected_timeout;
  profile.faults.injected_nan += faults.injected_nan;
  profile.faults.injected_device_lost += faults.injected_device_lost;
}

}  // namespace omega::hw::fpga
