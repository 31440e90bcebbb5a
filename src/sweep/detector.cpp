#include "sweep/detector.h"

#include <optional>

#include "hw/accelerators.h"

namespace omega::sweep {

DetectionReport detect_sweeps(const io::Dataset& dataset,
                              const DetectorOptions& options,
                              std::size_t max_candidates) {
  core::ScannerOptions scanner_options;
  scanner_options.config = options.config;
  scanner_options.ld = options.ld;
  scanner_options.recovery = options.recovery;
  scanner_options.cancel = options.cancel;
  scanner_options.deadline_seconds = options.deadline_seconds;
  scanner_options.deadline_clock = options.deadline_clock;

  DetectionReport report;
  std::optional<hw::Accelerator> accelerator;  // outlives the scan
  switch (options.backend) {
    case Backend::Cpu:
      report.backend_name = "cpu";
      break;
    case Backend::CpuThreaded:
      report.backend_name = "cpu-mt";
      scanner_options.threads = options.threads;
      break;
    case Backend::GpuSim:
    case Backend::FpgaSim:
    case Backend::Hetero: {
      hw::AcceleratorOptions accelerator_options;
      accelerator_options.kind =
          options.backend == Backend::GpuSim    ? hw::AcceleratorKind::Gpu
          : options.backend == Backend::FpgaSim ? hw::AcceleratorKind::Fpga
                                                : hw::AcceleratorKind::Hetero;
      if (options.backend == Backend::Hetero) {
        accelerator_options.split =
            core::HeteroSplit::parse(options.hetero_split);
        scanner_options.threads = options.threads;
      }
      accelerator_options.fault_plan = options.fault_plan;
      accelerator_options.cancel = options.cancel;
      accelerator = hw::make_accelerator(accelerator_options);
      report.backend_name = accelerator->name;
      if (accelerator->hetero) scanner_options.hetero = &*accelerator->hetero;
      break;
    }
  }

  const core::ScanResult scan_result = core::scan(
      dataset, scanner_options,
      accelerator ? accelerator->backend_factory : nullptr);
  report.profile = scan_result.profile;
  report.partial = scan_result.profile.runtime.partial;
  for (const auto& score : scan_result.top(max_candidates)) {
    if (!score.valid) continue;
    Candidate candidate;
    candidate.position_bp = score.position_bp;
    candidate.omega = score.max_omega;
    candidate.window_start_bp = dataset.positions().at(score.best_a);
    candidate.window_end_bp = dataset.positions().at(score.best_b);
    report.candidates.push_back(candidate);
  }
  return report;
}

}  // namespace omega::sweep
