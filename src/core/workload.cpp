#include "core/workload.h"

#include <algorithm>

namespace omega::core {

ScanWorkload analyze_workload(const io::Dataset& dataset,
                              const OmegaConfig& config) {
  ScanWorkload workload;
  const auto grid = build_grid(dataset, config);
  workload.positions.reserve(grid.size());

  // Mirror the scanner's M coverage to count fresh r2 fetches.
  std::size_t covered_base = 0;
  std::size_t covered_end = 0;  // exclusive; == base when empty
  bool covered = false;

  for (const auto& position : grid) {
    PositionWorkload item;
    item.geometry = position;
    if (position.valid) {
      item.combinations = position.combinations();
      const std::size_t lo = position.lo;
      const std::size_t hi_end = position.hi + 1;
      const std::size_t width = hi_end - lo;

      // Without reuse: DpMatrix built from empty fetches rows x (width-1).
      item.r2_without_reuse =
          static_cast<std::uint64_t>(width) * (width - 1);

      // With reuse: relocate to lo, then extend to hi_end. Grid positions
      // move strictly forward, so lo >= covered_base always holds.
      std::size_t fresh_rows = width;
      if (covered && lo >= covered_base) {
        if (hi_end <= covered_end) {
          fresh_rows = 0;  // fully covered already
        } else if (lo <= covered_end) {
          fresh_rows = hi_end - covered_end;  // contiguous growth
        }
        // else: gap — relocation empties the matrix, full rebuild (width).
      }
      item.r2_with_reuse =
          fresh_rows == 0 ? 0
                          : static_cast<std::uint64_t>(fresh_rows) * (width - 1);
      covered_base = lo;
      covered_end = std::max(covered ? covered_end : hi_end, hi_end);
      covered = true;

      item.omega_payload_bytes = omega_payload_bytes(position);
      workload.max_right_iterations =
          std::max(workload.max_right_iterations, position.right_borders());
    }
    workload.total_combinations += item.combinations;
    workload.total_r2_with_reuse += item.r2_with_reuse;
    workload.total_r2_without_reuse += item.r2_without_reuse;
    workload.total_omega_payload_bytes += item.omega_payload_bytes;
    workload.positions.push_back(item);
  }
  return workload;
}

std::uint64_t omega_payload_bytes(const GridPosition& position) noexcept {
  return static_cast<std::uint64_t>(position.left_borders()) * 12 +
         static_cast<std::uint64_t>(position.right_borders()) * 12 +
         position.combinations() * sizeof(float);
}

std::uint64_t estimate_position_cost(const GridPosition& position) noexcept {
  if (!position.valid) return 0;
  const auto width = static_cast<std::uint64_t>(position.hi - position.lo + 1);
  return position.combinations() + width;
}

}  // namespace omega::core
