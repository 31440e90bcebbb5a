#include "core/dp_matrix.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "par/thread_pool.h"

namespace omega::core {

// std::vector<SpanWorkerState>::resize relocates matrices; it moves them
// only when the move cannot throw, and copying a matrix does not compile.
static_assert(std::is_nothrow_move_constructible_v<DpMatrix>);

namespace {

// Under AddressSanitizer every cell no row may read is poisoned: slab tails
// no row occupies yet, free-listed slabs, retired rows and the dead prefixes
// relocation leaves in front of kept rows. A stale pointer into a retired
// row then faults, until its slab is recycled for new rows.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kPoisoning = true;
void poison(const double* cells, std::size_t n) {
  ASAN_POISON_MEMORY_REGION(cells, n * sizeof(double));
}
void unpoison(const double* cells, std::size_t n) {
  ASAN_UNPOISON_MEMORY_REGION(cells, n * sizeof(double));
}
#else
constexpr bool kPoisoning = false;
void poison(const double*, std::size_t) {}
void unpoison(const double*, std::size_t) {}
#endif

/// Cells in local rows [0, i): row i stores entries j = 0 .. i-1.
std::size_t row_offset(std::size_t i) noexcept { return i * (i - 1) / 2; }

/// True when every value is a finite float with its sign bit clear (-0.0
/// fails). One OR-reduction that vectorizes on any x86-64: the sign bit
/// shows directly, and adding 2^23 to the bits of an infinity or NaN (an
/// all-ones exponent) carries into it.
bool finite_nonnegative(const float* values, std::size_t n) noexcept {
  std::uint32_t bits = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = std::bit_cast<std::uint32_t>(values[k]);
    bits |= v | (v + 0x00800000u);
  }
  return (bits & 0x80000000u) == 0;
}

}  // namespace

void DpMatrix::reset(std::size_t base) {
  for (Slab& slab : slabs_) release(std::move(slab));
  slabs_.clear();
  rows_.clear();
  head_ = 0;
  base_ = base;
  count_ = 0;
  first_row_ = base;
  r2_nonnegative_ = true;
  ++stats_.resets;
}

double DpMatrix::at(std::size_t gi, std::size_t gj) const {
  if (gi < first_row_ || gi >= end() || gj < base_ || gj > gi) {
    throw std::out_of_range(
        "DpMatrix::at(" + std::to_string(gi) + ", " + std::to_string(gj) +
        ") outside rows [" + std::to_string(first_row_) + ", " +
        std::to_string(end()) + ") and columns [" + std::to_string(base_) +
        ", i]");
  }
  return at_fast(gi, gj);
}

void DpMatrix::relocate(std::size_t new_base, std::size_t first_row) {
  if (new_base < base_) {
    throw std::invalid_argument("DpMatrix::relocate cannot move base backward");
  }
  const std::size_t delta = new_base - base_;
  if (delta > 0 && delta >= count_) {
    reset(new_base);  // no overlap survives; counts as a reset
    return;
  }
  // Kept rows stay where they are; their first `delta` entries become dead
  // cells until the row retires.
  const std::size_t old_base = base_;
  count_ -= delta;
  base_ = new_base;
  ++stats_.relocations;
  stats_.cells_reused += row_offset(count_);
  if (count_ == 0) return;  // an empty matrix relocated in place
  retire_below(std::max(new_base, std::min(first_row, end() - 1)));
  if constexpr (kPoisoning) {
    for (std::size_t gi = first_row_; gi < end(); ++gi) {
      const Row& row = row_of(gi);
      poison(row.cells + (old_base - row.col0), delta);
    }
  }
}

void DpMatrix::retire_below(std::size_t row) {
  if (row <= first_row_) return;
  if constexpr (kPoisoning) {
    for (std::size_t gi = first_row_; gi < row; ++gi) {
      const Row& retired = row_of(gi);
      poison(retired.cells, gi - retired.col0);
    }
  }
  head_ += row - first_row_;
  first_row_ = row;
  // The open slab holds row end() - 1, which is never retired, so only
  // closed slabs leave here.
  std::size_t done = 0;
  while (done < slabs_.size() && slabs_[done].rows_end <= first_row_) {
    release(std::move(slabs_[done]));
    ++done;
  }
  slabs_.erase(slabs_.begin(),
               slabs_.begin() + static_cast<std::ptrdiff_t>(done));
  // Drop the retired descriptors once they outnumber the live ones, so each
  // descriptor is shifted a constant number of times on average.
  if (head_ >= rows_.size() - head_) {
    rows_.erase(rows_.begin(),
                rows_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void DpMatrix::release(Slab&& slab) {
  if (slab.size != kSlabCells) {
    capacity_ -= slab.size;
    slab.cells.reset();
    return;
  }
  poison(slab.cells.get(), slab.size);
  free_.push_back(std::move(slab));
}

void DpMatrix::place_row(std::size_t gi, std::size_t cells) {
  if (slabs_.empty() || slabs_.back().size - slabs_.back().used < cells) {
    Slab slab;
    if (cells <= kSlabCells && !free_.empty()) {
      slab = std::move(free_.back());  // the most recently released slab
      free_.pop_back();
    } else {
      slab.size = std::max(cells, kSlabCells);
      slab.cells = std::make_unique_for_overwrite<double[]>(slab.size);
      capacity_ += slab.size;
      poison(slab.cells.get(), slab.size);
    }
    slab.used = 0;
    slabs_.push_back(std::move(slab));
  }
  Slab& slab = slabs_.back();
  double* row = slab.cells.get() + slab.used;
  slab.used += cells;
  slab.rows_end = gi + 1;
  unpoison(row, cells);
  rows_.push_back(Row{row, base_});
}

void DpMatrix::extend(std::size_t new_end, const ld::LdEngine& engine,
                      par::ThreadPool* pool) {
  if (new_end > engine.num_sites()) {
    throw std::out_of_range("DpMatrix::extend to " + std::to_string(new_end) +
                            " past the engine's " +
                            std::to_string(engine.num_sites()) + " sites");
  }
  // No new rows: return before touching storage or the engine.
  if (new_end <= end()) return;
  const std::size_t old_count = count_;
  const std::size_t new_count = new_end - base_;
  stats_.cells_recomputed += row_offset(new_count) - row_offset(old_count);
  for (std::size_t i = old_count; i < new_count; ++i) place_row(base_ + i, i);
  count_ = new_count;
  // Live slice of local row i (entry k is M(base + i, base + k)).
  const auto slice = [this](std::size_t i) {
    const Row& row = row_of(base_ + i);
    return row.cells + (base_ - row.col0);
  };

  // Eq. (3) in telescoped form. The recurrence
  //   M(i, j) = M(i, j+1) + M(i-1, j) - M(i-1, j+1) + r2(i, j)
  // telescopes (subtract M(i-1, j) and induct down from the M(i, i) = 0
  // boundary) to
  //   M(i, j) = M(i-1, j) + sum_{q = j}^{i-1} r2(i, q),
  // i.e. row i is row i-1 plus the suffix-sum of row i's r2 values. Phase 1
  // computes the suffix scans — independent across rows, so large extends
  // tile them over the pool; the descending per-row order is fixed, keeping
  // the float results identical for any pool size and any matrix base
  // (relocation tests compare them bitwise). Phase 2 adds each previous row
  // in ascending order — a unit-stride vector add replacing the old 4-term
  // per-cell chain.
  //
  // Both phases run one fetch block at a time. Each block fetches its rows
  // over the full column span (columns 0 .. new_count-2), so the fetch count
  // equals one whole-extend block, while the scratch holds only kFetchRows
  // rows.
  const std::size_t ld_r2 = new_count - 1;
  if (ld_r2 == 0) return;  // a lone row has no columns below its diagonal
  const std::size_t first = old_count == 0 ? 1 : old_count;
  const bool vouched = engine.r2_nonnegative();
  constexpr std::size_t kMinRowsForPool = 64;
  const bool use_pool = pool != nullptr && pool->size() > 0 &&
                        new_count - first >= kMinRowsForPool;
  r2_scratch_.resize(std::min(kFetchRows, new_count - old_count) * ld_r2);
  for (std::size_t r0 = old_count; r0 < new_count; r0 += kFetchRows) {
    const std::size_t r1 = std::min(r0 + kFetchRows, new_count);
    engine.r2_block(base_ + r0, base_ + r1, base_, base_ + ld_r2,
                    r2_scratch_.data(), ld_r2);
    r2_fetches_ += static_cast<std::uint64_t>(r1 - r0) * ld_r2;

    const std::size_t lo = std::max(r0, first);
    // Row i folds in its cells j < i only.
    for (std::size_t i = lo; r2_nonnegative_ && !vouched && i < r1; ++i) {
      r2_nonnegative_ =
          finite_nonnegative(r2_scratch_.data() + (i - r0) * ld_r2, i);
    }
    const auto suffix_row = [&](std::size_t i) {
      double* row = slice(i);
      const float* r2_row = r2_scratch_.data() + (i - r0) * ld_r2;
      double acc = 0.0;
      for (std::size_t j = i; j-- > 0;) {
        acc += static_cast<double>(r2_row[j]);
        row[j] = acc;
      }
    };
    if (use_pool) {
      par::parallel_for(*pool, lo, r1, 8, suffix_row);
    } else {
      for (std::size_t i = lo; i < r1; ++i) suffix_row(i);
    }
    for (std::size_t i = lo; i < r1; ++i) {
      double* row = slice(i);
      const double* prev = slice(i - 1);
      // Previous row holds columns 0 .. i-2; column i-1 adds the implicit
      // zero diagonal M(i-1, i-1), so the suffix value already stored is
      // final.
      for (std::size_t j = 0; j + 1 < i; ++j) row[j] += prev[j];
    }
  }
}

}  // namespace omega::core
