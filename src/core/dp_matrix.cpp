#include "core/dp_matrix.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "par/thread_pool.h"

namespace omega::core {

void DpMatrix::reset(std::size_t base) {
  base_ = base;
  count_ = 0;
  head_ = 0;
  rows_.clear();
  tail_ = 0;
  ++stats_.resets;
}

double DpMatrix::at(std::size_t gi, std::size_t gj) const {
  if (gi < base_ || gi >= end() || gj < base_ || gj > gi) {
    throw std::out_of_range(
        "DpMatrix::at(" + std::to_string(gi) + ", " + std::to_string(gj) +
        ") outside covered range [" + std::to_string(base_) + ", " +
        std::to_string(end()) + ") with j <= i");
  }
  return at_fast(gi, gj);
}

void DpMatrix::relocate(std::size_t new_base) {
  if (new_base < base_) {
    throw std::invalid_argument("DpMatrix::relocate cannot move base backward");
  }
  const std::size_t delta = new_base - base_;
  if (delta > 0 && delta >= count_) {
    reset(new_base);  // no overlap survives; counts as a reset
    return;
  }
  // Row gi keeps its slot; its first `delta` entries become dead cells that
  // the next compaction drops.
  count_ -= delta;
  head_ += delta;
  base_ = new_base;
  ++stats_.relocations;
  stats_.cells_reused += row_offset(count_);
}

void DpMatrix::Arena::resize(std::size_t capacity) {
  void* cells = std::realloc(cells_, capacity * sizeof(double));
  if (cells == nullptr) throw std::bad_alloc();
  cells_ = static_cast<double*>(cells);
  capacity_ = capacity;
}

void DpMatrix::make_room(std::size_t cells) {
  const std::size_t capacity = arena_.capacity();
  if (tail_ + cells <= capacity) return;
  // Compact: slide each live slice [base, gi) to the front, oldest row
  // first. Rows sit in the arena in row order, so every destination is at or
  // below its source and front-to-back memmoves are safe.
  std::size_t dst = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    double* src = local_row(i);
    if (src != arena_.data() + dst) {
      std::memmove(arena_.data() + dst, src, i * sizeof(double));
      stats_.cells_moved += i;
    }
    rows_[head_ + i] = dst - base_;
    dst += i;
  }
  rows_.erase(rows_.begin(),
              rows_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  tail_ = dst;

  const std::size_t needed = tail_ + cells;
  if (needed + capacity / 4 <= capacity) return;
  // Grow so a quarter stays free. Reallocating rather than allocating and
  // copying means the old and new arenas are never resident together.
  arena_.resize(needed + needed / 3);
  stats_.cells_moved += tail_;
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
  const std::size_t new_cells = row_offset(new_count) - row_offset(old_count);
  make_room(new_cells);
  stats_.cells_recomputed += new_cells;
  for (std::size_t i = old_count; i < new_count; ++i) {
    rows_.push_back(tail_ - base_);
    tail_ += i;
  }
  count_ = new_count;

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
    const auto suffix_row = [&](std::size_t i) {
      double* row = local_row(i);
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
      double* row = local_row(i);
      const double* prev = local_row(i - 1);
      // Previous row holds columns 0 .. i-2; column i-1 adds the implicit
      // zero diagonal M(i-1, i-1), so the suffix value already stored is
      // final.
      for (std::size_t j = 0; j + 1 < i; ++j) row[j] += prev[j];
    }
  }
}

}  // namespace omega::core
