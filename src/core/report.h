#pragma once
// OmegaPlus-compatible output files. A run named <name> produces:
//
//   OmegaPlus_Report.<name> — one "position<TAB>omega" line per grid
//                             position (the file downstream plotting and
//                             power analyses consume);
//   OmegaPlus_Info.<name>   — run parameters, dataset shape, profiling
//                             summary, and the best-scoring windows.
//
// Matching the reference tool's file naming lets existing OmegaPlus
// post-processing scripts run unchanged against this implementation.

#include <iosfwd>
#include <string>

#include "core/scanner.h"
#include "io/dataset.h"

namespace omega::core {

void write_report(std::ostream& out, const ScanResult& result);

/// `dataset_summary` is the shape line (Dataset::shape_string(), or e.g.
/// "120000 sites x 64 haplotypes (streamed)" for a streamed run, which never
/// holds the whole alignment) and `has_missing` the missing-data note.
void write_info(std::ostream& out, const std::string& run_name,
                const std::string& dataset_summary, bool has_missing,
                const ScannerOptions& options, const ScanResult& result,
                const std::string& backend_name);

/// Writes both files into `directory` (created by the caller); returns the
/// report path.
std::string write_run_files(const std::string& directory,
                            const std::string& run_name, const io::Dataset& dataset,
                            const ScannerOptions& options,
                            const ScanResult& result,
                            const std::string& backend_name);

/// Dataset-free form for streamed runs (see write_info).
std::string write_run_files(const std::string& directory,
                            const std::string& run_name,
                            const std::string& dataset_summary,
                            bool has_missing, const ScannerOptions& options,
                            const ScanResult& result,
                            const std::string& backend_name);

}  // namespace omega::core
