#include "core/report.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "util/ios_guard.h"

namespace omega::core {

void write_report(std::ostream& out, const ScanResult& result) {
  const util::IosFormatGuard format_guard(out);
  out << std::setprecision(6) << std::fixed;
  for (const auto& score : result.scores) {
    out << score.position_bp << '\t' << (score.valid ? score.max_omega : 0.0)
        << '\n';
  }
}

void write_info(std::ostream& out, const std::string& run_name,
                const std::string& dataset_summary, bool has_missing,
                const ScannerOptions& options, const ScanResult& result,
                const std::string& backend_name) {
  const util::IosFormatGuard format_guard(out);
  const auto& config = options.config;
  out << "OmegaPlus (libomega reimplementation) run: " << run_name << "\n\n";
  out << "Dataset:      " << dataset_summary << "\n";
  out << "Missing data: " << (has_missing ? "yes (pairwise-complete r2)" : "no")
      << "\n";
  out << "Grid size:    " << config.grid_size << "\n";
  out << "Window unit:  "
      << (config.window_unit == WindowUnit::BasePairs ? "bp" : "SNPs")
      << "\n";
  out << "Max window:   " << config.max_window << "\n";
  out << "Min window:   " << config.min_window << "\n";
  if (config.max_snps_per_side > 0) {
    out << "Side cap:     " << config.max_snps_per_side << " SNPs\n";
  }
  out << "Threads:      " << options.threads << "\n";
  // Prefer the name of the engine that actually served the scan (resolves
  // Auto and custom factories); fall back to the requested kind for results
  // assembled without a profile.
  out << "LD engine:    "
      << (!result.profile.ld_backend.empty()
              ? result.profile.ld_backend
              : ld_backend_name(resolve_ld_backend(options.ld)))
      << "\n";
  out << "Backend:      " << backend_name << "\n\n";

  const auto& profile = result.profile;
  out << std::setprecision(3) << std::fixed;
  out << "Total time:   " << profile.total_seconds << " s\n";
  out << "LD time:      " << profile.ld_seconds << " s ("
      << profile.r2_fetched << " r2 values)\n";
  out << "Omega time:   " << profile.omega_seconds << " s ("
      << profile.omega_evaluations << " omega evaluations)\n";
  out << "Omega rate:   " << profile.omega_throughput() / 1e6 << " Mw/s\n";

  // Fault-recovery summary (only when the scan saw trouble, so healthy runs
  // keep the historical Info layout).
  const auto& faults = profile.faults;
  if (faults.faults_injected > 0 || faults.errors_caught > 0 ||
      faults.invalid_results > 0 || faults.quarantined_positions > 0 ||
      faults.degradations > 0) {
    out << "Recovery:     " << faults.faults_injected << " faults injected, "
        << faults.retries << " retries, " << faults.quarantined_positions
        << " quarantined, " << faults.degradations << " degradations ("
        << faults.backoff_virtual_seconds << " s virtual backoff)\n";
  }

  // Streaming summary (only for streamed runs, keeping the in-memory Info
  // layout untouched).
  const auto& stream = profile.stream;
  if (stream.chunks > 0) {
    out << "Streaming:    " << stream.chunks << " chunks (target "
        << stream.chunk_sites_target << " sites), peak resident "
        << stream.peak_resident_sites << " sites, "
        << static_cast<int>(stream.io_overlap_ratio() * 100.0)
        << "% IO hidden\n";
  }
  out << "\n";

  out << "Top windows:\n";
  out << std::setprecision(6);
  for (const auto& score : result.top(5)) {
    if (!score.valid) continue;
    out << "  position " << score.position_bp << "  omega " << score.max_omega
        << "  window [SNP " << score.best_a << " .. SNP " << score.best_b
        << "]\n";
  }
}

std::string write_run_files(const std::string& directory,
                            const std::string& run_name,
                            const std::string& dataset_summary,
                            bool has_missing, const ScannerOptions& options,
                            const ScanResult& result,
                            const std::string& backend_name) {
  const std::string report_path =
      directory + "/OmegaPlus_Report." + run_name;
  const std::string info_path = directory + "/OmegaPlus_Info." + run_name;
  std::ofstream report(report_path);
  if (!report) throw std::runtime_error("cannot write " + report_path);
  write_report(report, result);
  std::ofstream info(info_path);
  if (!info) throw std::runtime_error("cannot write " + info_path);
  write_info(info, run_name, dataset_summary, has_missing, options, result,
             backend_name);
  return report_path;
}

std::string write_run_files(const std::string& directory,
                            const std::string& run_name, const io::Dataset& dataset,
                            const ScannerOptions& options,
                            const ScanResult& result,
                            const std::string& backend_name) {
  return write_run_files(directory, run_name, dataset.shape_string(),
                         dataset.has_missing(), options, result, backend_name);
}

}  // namespace omega::core
