#pragma once
// Grid construction: OmegaPlus evaluates the omega statistic at `grid_size`
// equidistant genomic locations between the first and last SNP (Fig. 2). For
// each location this module resolves the SNP index geometry every backend
// consumes:
//
//        lo          a_max   c   b_min          hi
//   ...--|------------|------|----|--------------|--...   (SNP indices)
//         <- left region ->  ^  <- right region ->
//                        omega position
//
//   * [lo, hi]   — SNPs within max_window/2 of the position (per side),
//   * c          — last SNP at or left of the position (the split),
//   * a in [lo, a_max], b in [b_min, hi] — window borders honouring the
//     min_window requirement and the l,r >= 2 rule.
//
// The number of omega evaluations at the position is exactly
// (a_max - lo + 1) * (hi - b_min + 1), which is what the workload statistics
// and the accelerator timing models consume.

#include <cstdint>
#include <vector>

#include "core/omega_config.h"
#include "io/dataset.h"

namespace omega::core {

struct GridPosition {
  std::int64_t position_bp = 0;
  /// Inclusive global SNP index bounds of the region; meaningful only when
  /// `valid`.
  std::size_t lo = 0, hi = 0;
  /// Split index: left sub-region windows are [a..c], right are [c+1..b].
  std::size_t c = 0;
  /// Largest admissible left border and smallest admissible right border.
  std::size_t a_max = 0, b_min = 0;
  bool valid = false;

  /// Admissible left borders a in [lo, a_max] and right borders b in
  /// [b_min, hi]: the outer and inner trip counts of every omega kernel.
  [[nodiscard]] std::size_t left_borders() const noexcept {
    return valid ? a_max - lo + 1 : 0;
  }
  [[nodiscard]] std::size_t right_borders() const noexcept {
    return valid ? hi - b_min + 1 : 0;
  }
  /// Number of (a, b) window combinations = omega evaluations.
  [[nodiscard]] std::uint64_t combinations() const noexcept {
    return static_cast<std::uint64_t>(left_borders()) * right_borders();
  }
  /// Left / right sub-region SNP counts (maximal windows).
  [[nodiscard]] std::size_t left_snps() const noexcept {
    return valid ? c - lo + 1 : 0;
  }
  [[nodiscard]] std::size_t right_snps() const noexcept {
    return valid ? hi - c : 0;
  }
};

/// Builds all grid positions for a dataset. Positions with too few SNPs on
/// either side are marked invalid (scored as omega = 0 by the scanner, the
/// OmegaPlus behaviour).
std::vector<GridPosition> build_grid(const io::Dataset& dataset,
                                     const OmegaConfig& config);

/// Grid geometry depends only on the SNP coordinates, so the streaming
/// planner (which holds a position index but no genotype data) uses these
/// overloads; the Dataset form above delegates to them. `positions_bp` must
/// be strictly increasing.
std::vector<GridPosition> build_grid(
    const std::vector<std::int64_t>& positions_bp, const OmegaConfig& config);

/// Resolves the geometry for one arbitrary genomic location.
GridPosition resolve_position(const std::vector<std::int64_t>& positions_bp,
                              const OmegaConfig& config,
                              std::int64_t position_bp);

}  // namespace omega::core
