#pragma once
// Exact workload statistics of a scan, computed from SNP positions alone (no
// genotypes touched, no M materialized). These numbers drive:
//   * the accelerator timing models at paper scale (Figs. 10-14),
//   * the dynamic GPU kernel dispatch threshold (combinations per position),
//   * reuse-efficiency reporting (fresh vs total r2 values).

#include <cstdint>
#include <vector>

#include "core/grid.h"
#include "core/omega_config.h"
#include "io/dataset.h"

namespace omega::core {

struct PositionWorkload {
  GridPosition geometry;
  /// omega evaluations at this position.
  std::uint64_t combinations = 0;
  /// r2 values the DP layer fetches for this position when relocation reuse
  /// is on (exactly matching DpMatrix::extend accounting).
  std::uint64_t r2_with_reuse = 0;
  /// r2 fetches if M were rebuilt from scratch at this position.
  std::uint64_t r2_without_reuse = 0;
  /// Host->device payload for the omega buffers (bytes, before padding).
  std::uint64_t omega_payload_bytes = 0;
};

struct ScanWorkload {
  std::vector<PositionWorkload> positions;
  std::uint64_t total_combinations = 0;
  std::uint64_t total_r2_with_reuse = 0;
  std::uint64_t total_r2_without_reuse = 0;
  std::uint64_t total_omega_payload_bytes = 0;
  /// Max inner-loop trip count over positions (the FPGA "right-side loop").
  std::size_t max_right_iterations = 0;
};

ScanWorkload analyze_workload(const io::Dataset& dataset,
                              const OmegaConfig& config);

/// Host->device payload of one position's omega buffers, before padding:
/// ls + k + l_counts (4 bytes each) per left border, rs + m + r_counts per
/// right border, and one float of TS per combination (core::pack_position's
/// layout). The one payload formula: analyze_workload and the simulated GPU's
/// launch cost both read it.
[[nodiscard]] std::uint64_t omega_payload_bytes(
    const GridPosition& position) noexcept;

/// Standalone per-position cost estimate for scheduling (span budgeting in
/// the work-stealing scan engine): the exact ω evaluation count plus a width
/// term approximating the per-position share of DP-matrix extension, so
/// LD-heavy positions (wide windows, few admissible borders) don't round to
/// "free". Zero for invalid positions — schedulers must budget by *valid*
/// work only, never by raw grid-index counts.
[[nodiscard]] std::uint64_t estimate_position_cost(
    const GridPosition& position) noexcept;

}  // namespace omega::core
