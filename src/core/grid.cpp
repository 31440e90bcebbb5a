#include "core/grid.h"

#include <algorithm>

namespace omega::core {
namespace {

/// Index of the last SNP with position <= value, or -1.
std::ptrdiff_t last_at_or_before(const std::vector<std::int64_t>& positions,
                                 std::int64_t value) {
  const auto it = std::upper_bound(positions.begin(), positions.end(), value);
  return static_cast<std::ptrdiff_t>(it - positions.begin()) - 1;
}

/// Index of the first SNP with position >= value, or positions.size().
std::size_t first_at_or_after(const std::vector<std::int64_t>& positions,
                              std::int64_t value) {
  const auto it = std::lower_bound(positions.begin(), positions.end(), value);
  return static_cast<std::size_t>(it - positions.begin());
}

}  // namespace

GridPosition resolve_position(const std::vector<std::int64_t>& positions,
                              const OmegaConfig& config,
                              std::int64_t position_bp) {
  GridPosition grid_position;
  grid_position.position_bp = position_bp;
  const std::size_t sites = positions.size();
  if (sites < 2 * OmegaConfig::min_side_snps) return grid_position;

  const std::ptrdiff_t c_signed = last_at_or_before(positions, position_bp);
  if (c_signed < 0) return grid_position;
  const auto c = static_cast<std::size_t>(c_signed);
  if (c + 1 >= sites) return grid_position;  // nothing on the right

  std::size_t lo = 0, hi = sites - 1, a_max = 0, b_min = 0;
  if (config.window_unit == WindowUnit::BasePairs) {
    const std::int64_t half_max = config.max_window / 2;
    const std::int64_t half_min = config.min_window / 2;
    lo = first_at_or_after(positions, position_bp - half_max);
    const std::ptrdiff_t hi_signed =
        last_at_or_before(positions, position_bp + half_max);
    if (hi_signed < 0) return grid_position;
    hi = static_cast<std::size_t>(hi_signed);
    const std::ptrdiff_t a_signed =
        last_at_or_before(positions, position_bp - half_min);
    if (a_signed < 0) return grid_position;
    a_max = static_cast<std::size_t>(a_signed);
    b_min = first_at_or_after(positions, position_bp + half_min);
  } else {
    // SNP-count windows: extents counted in SNPs per side.
    const auto half_max = static_cast<std::size_t>(config.max_window / 2);
    const auto half_min =
        std::max<std::size_t>(1, static_cast<std::size_t>(config.min_window / 2));
    lo = c + 1 >= half_max ? c + 1 - half_max : 0;
    hi = std::min(sites - 1, c + half_max);
    a_max = c + 1 >= half_min ? c + 1 - half_min : 0;
    b_min = c + half_min;
  }

  // l, r >= 2 and the side cap.
  if (config.max_snps_per_side > 0) {
    lo = std::max(lo, c + 1 >= config.max_snps_per_side
                          ? c + 1 - config.max_snps_per_side
                          : 0);
    hi = std::min(hi, c + config.max_snps_per_side);
  }
  a_max = std::min(a_max, c >= 1 ? c - 1 : 0);
  b_min = std::max(b_min, c + 2);

  if (lo > a_max || b_min > hi || c < 1 || hi <= c) return grid_position;
  if (c >= 1 && lo > c - 1) return grid_position;

  grid_position.lo = lo;
  grid_position.hi = hi;
  grid_position.c = c;
  grid_position.a_max = a_max;
  grid_position.b_min = b_min;
  grid_position.valid = true;
  return grid_position;
}

std::vector<GridPosition> build_grid(
    const std::vector<std::int64_t>& positions_bp, const OmegaConfig& config) {
  config.validate();
  std::vector<GridPosition> grid;
  grid.reserve(config.grid_size);
  if (positions_bp.empty()) return grid;
  const double first = static_cast<double>(positions_bp.front());
  const double last = static_cast<double>(positions_bp.back());
  for (std::size_t k = 0; k < config.grid_size; ++k) {
    const double fraction =
        config.grid_size == 1
            ? 0.5
            : static_cast<double>(k) / static_cast<double>(config.grid_size - 1);
    const auto position =
        static_cast<std::int64_t>(first + fraction * (last - first));
    grid.push_back(resolve_position(positions_bp, config, position));
  }
  return grid;
}

std::vector<GridPosition> build_grid(const io::Dataset& dataset,
                                     const OmegaConfig& config) {
  return build_grid(dataset.positions(), config);
}

}  // namespace omega::core
