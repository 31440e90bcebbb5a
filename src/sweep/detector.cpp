#include "sweep/detector.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "core/hetero_scheduler.h"
#include "core/metrics_json.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gemm_ld_kernel.h"
#include "hw/gpu/gpu_backend.h"
#include "hw/hetero_profile.h"
#include "par/thread_pool.h"

namespace omega::sweep {

std::string DetectionReport::metrics_json(const std::string& run_name) const {
  return core::metrics::scan_metrics(run_name, profile).dump();
}

void DetectionReport::write_metrics_json(const std::string& path,
                                         const std::string& run_name) const {
  core::metrics::write_json_file(
      path, core::metrics::scan_metrics(run_name, profile));
}

std::vector<Candidate> DetectionReport::above(double threshold) const {
  std::vector<Candidate> out;
  std::copy_if(candidates.begin(), candidates.end(), std::back_inserter(out),
               [&](const Candidate& c) { return c.omega >= threshold; });
  return out;
}

namespace {

using BackendFactory = std::function<std::unique_ptr<core::OmegaBackend>()>;
using ScanDriver = std::function<core::ScanResult(const core::ScannerOptions&,
                                                  const BackendFactory&)>;

/// Backs the simulated GPU's compute units; sized to hardware concurrency
/// and built on first use, so CPU-only detection spawns no threads.
par::ThreadPool& gpu_pool() {
  static par::ThreadPool pool;
  return pool;
}

/// The one backend switch behind both detectors: builds the scanner options
/// and backend factory for options.backend, runs `driver` (scan or
/// stream_scan) with them, and ranks the candidates. Candidate windows take
/// their bp coordinates from `positions` (the dataset's sites or the
/// stream's position index).
DetectionReport detect(const DetectorOptions& options,
                       const std::vector<std::int64_t>& positions,
                       std::size_t max_candidates, const ScanDriver& driver) {
  core::ScannerOptions scanner_options;
  scanner_options.config = options.config;
  scanner_options.ld = options.ld;
  scanner_options.recovery = options.recovery;
  scanner_options.cancel = options.cancel;
  scanner_options.deadline_seconds = options.deadline_seconds;
  scanner_options.deadline_clock = options.deadline_clock;

  DetectionReport report;
  BackendFactory factory;  // empty: the CPU nested loop
  std::optional<core::HeteroConfig> hetero_config;  // outlives the scan
  switch (options.backend) {
    case Backend::Cpu:
      report.backend_name = "cpu";
      break;
    case Backend::CpuThreaded:
      report.backend_name = "cpu-mt";
      scanner_options.threads = options.threads;
      break;
    case Backend::GpuSim: {
      // Complete GPU-accelerated OmegaPlus: GEMM LD kernel + omega kernels
      // on the simulated device (one shared pool; single scan worker).
      const auto spec = hw::tesla_k80();
      report.backend_name = "gpu-sim:" + spec.name;
      scanner_options.ld_factory = [spec](const ld::SnpMatrix& snps) {
        return std::make_unique<hw::gpu::GpuLdEngine>(snps, gpu_pool(), spec);
      };
      factory = [spec, &options] {
        hw::gpu::GpuBackendOptions backend_options;
        backend_options.fault_plan = options.fault_plan;
        backend_options.cancel = options.cancel;
        return std::make_unique<hw::gpu::GpuOmegaBackend>(spec, gpu_pool(),
                                                          backend_options);
      };
      break;
    }
    case Backend::FpgaSim: {
      const auto spec = hw::alveo_u200();
      report.backend_name = "fpga-sim:" + spec.name;
      factory = [spec, &options] {
        hw::fpga::FpgaBackendOptions backend_options;
        backend_options.fault_plan = options.fault_plan;
        backend_options.cancel = options.cancel;
        return std::make_unique<hw::fpga::FpgaOmegaBackend>(spec,
                                                            backend_options);
      };
      break;
    }
    case Backend::Hetero: {
      // Heterogeneous co-scheduler: CPU span workers + GPU-sim + FPGA-sim on
      // one scan, split by modeled throughput (or the fixed hetero_split).
      report.backend_name = "hetero";
      hw::HeteroProfileOptions profile_options;
      profile_options.split = core::HeteroSplit::parse(options.hetero_split);
      profile_options.fault_plan = options.fault_plan;
      profile_options.cancel = options.cancel;
      hetero_config = hw::default_hetero_config(profile_options, gpu_pool());
      scanner_options.hetero = &*hetero_config;
      scanner_options.threads = options.threads;
      break;
    }
  }

  const core::ScanResult scan_result = driver(scanner_options, factory);
  report.profile = scan_result.profile;
  report.partial = scan_result.profile.runtime.partial;
  for (const auto& score : scan_result.top(max_candidates)) {
    if (!score.valid) continue;
    Candidate candidate;
    candidate.position_bp = score.position_bp;
    candidate.omega = score.max_omega;
    candidate.window_start_bp = positions.at(score.best_a);
    candidate.window_end_bp = positions.at(score.best_b);
    report.candidates.push_back(candidate);
  }
  return report;
}

}  // namespace

DetectionReport detect_sweeps(const io::Dataset& dataset,
                              const DetectorOptions& options,
                              std::size_t max_candidates) {
  return detect(options, dataset.positions(), max_candidates,
                [&](const core::ScannerOptions& scanner_options,
                    const BackendFactory& factory) {
                  return core::scan(dataset, scanner_options, factory);
                });
}

DetectionReport detect_sweeps_stream(io::ChunkReader& reader,
                                     const DetectorOptions& options,
                                     const core::StreamScanOptions& stream_options,
                                     std::size_t max_candidates) {
  return detect(options, reader.index().positions_bp, max_candidates,
                [&](const core::ScannerOptions& scanner_options,
                    const BackendFactory& factory) {
                  return core::stream_scan(reader, scanner_options,
                                           stream_options, factory);
                });
}

}  // namespace omega::sweep
