#pragma once
// The dynamic-programming matrix M of Eq. (3):
//
//   M(i, j) = sum of r2_{p,q} over all SNP pairs j <= q < p <= i
//
// built with the OmegaPlus recurrence
//
//   M(i, i)   = 0
//   M(i, i-1) = r2(i, i-1)
//   M(i, j)   = M(i, j+1) + M(i-1, j) - M(i-1, j+1) + r2(i, j)
//
// and supporting the tool's data-reuse optimization: when consecutive grid
// regions overlap, already computed entries are *relocated* (the sub-triangle
// for the overlapping SNP range is kept; M(i,j) only depends on r2 values
// inside [j, i], so the relocated entries stay valid) and only rows for new
// SNPs are computed.
//
// Storage is an arena of rows addressed by *global* SNP indices so the
// scanner never translates coordinates. Each row stays in the arena slot
// where extend() wrote it: relocation only advances the row-head index and
// base(), leaving the dropped columns of every kept row as dead cells in
// front of its live slice. New rows append at the arena tail; when the tail
// runs out, the live rows are compacted to the front in one front-to-back
// pass, and the arena grows by reallocation, which remaps rather than copies
// a large block, only when compaction would leave less than a quarter of it
// free. Each computed cell is therefore copied a small constant number of
// times over its lifetime instead of once per grid position. Entries are
// double: the CPU side is the precision reference; accelerator backends
// consume float casts of these sums exactly as OmegaPlus's host code feeds
// its accelerators.

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "ld/ld_engine.h"

namespace omega::par {
class ThreadPool;
}

namespace omega::core {

/// Lifetime reuse accounting of one DpMatrix (observability layer): how the
/// matrix was advanced across grid positions and how many Eq. (3) cells the
/// relocation optimization saved versus recomputed.
struct DpMatrixStats {
  std::uint64_t resets = 0;            // reset() calls (full rebuilds)
  std::uint64_t relocations = 0;       // relocate() calls that kept cells
  std::uint64_t cells_reused = 0;      // entries carried over by relocation
  std::uint64_t cells_recomputed = 0;  // entries computed by extend()
  /// Live entries copied by arena compaction or growth (relocate() itself
  /// copies none). Growth counts the live entries the reallocation must
  /// preserve, whether or not the allocator remaps them instead of copying.
  /// Kept out of ScanProfile and the metrics schema.
  std::uint64_t cells_moved = 0;
};

class DpMatrix {
 public:
  DpMatrix() = default;

  /// Empties the matrix and anchors it at `base` (global index of local 0).
  void reset(std::size_t base);

  [[nodiscard]] std::size_t base() const noexcept { return base_; }
  /// One past the last covered global SNP index.
  [[nodiscard]] std::size_t end() const noexcept { return base_ + count_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// M(gi, gj) for base() <= gj <= gi < end(). M(gi, gi) == 0.
  [[nodiscard]] double at(std::size_t gi, std::size_t gj) const;

  /// Sum of r2 over all pairs within the inclusive global range [glo, ghi].
  [[nodiscard]] double range_sum(std::size_t glo, std::size_t ghi) const {
    return at(ghi, glo);
  }

  /// Unchecked accessor for the omega nested loop (the scan hot path); the
  /// caller guarantees base() <= gj <= gi < end().
  [[nodiscard]] double at_fast(std::size_t gi, std::size_t gj) const noexcept {
    return gi == gj ? 0.0 : arena_.data()[row_origin(gi) + gj];
  }

  /// Raw contiguous slice of row `gi`: entry k is M(gi, base() + k) for
  /// k = 0 .. gi - base() - 1. The diagonal M(gi, gi) is implicit (zero) and
  /// NOT part of the slice — vectorized kernels must only read columns
  /// strictly below gi. Caller guarantees base() <= gi < end(). The pointer
  /// stays valid until the next reset(), relocate() or extend().
  [[nodiscard]] const double* row_data(std::size_t gi) const noexcept {
    return arena_.data() + (row_origin(gi) + base_);
  }

  /// Drops all state before `new_base` (new_base >= base). Copies no cells:
  /// the kept rows stay where they are and only the row head and base move
  /// — this is the OmegaPlus relocation.
  void relocate(std::size_t new_base);

  /// Grows coverage to [base, new_end) computing new rows via the Eq. (3)
  /// recurrence in telescoped form: row i equals row i-1 plus the suffix-sum
  /// of row i's fresh r2 values, so the per-cell 4-term dependency chain
  /// becomes one suffix scan per row (independent across rows) followed by a
  /// vectorizable row add. r2 values for the new rows are fetched from the
  /// engine in blocks of at most kFetchRows rows over the full column span
  /// [base, new_end - 1), so the fetch scratch stays small while every fetch
  /// count matches one whole-extend block. When `pool` is non-null, large
  /// extends tile the suffix-scan phase across it; results are bit-identical
  /// with or without a pool (per-row summation order is fixed). Throws
  /// std::out_of_range when new_end > engine.num_sites().
  void extend(std::size_t new_end, const ld::LdEngine& engine,
              par::ThreadPool* pool = nullptr);

  /// Number of r2 values fetched over the object's lifetime (reuse metric).
  [[nodiscard]] std::uint64_t r2_fetches() const noexcept { return r2_fetches_; }

  /// Lifetime reset/relocate/extend accounting (reuse observability).
  [[nodiscard]] const DpMatrixStats& stats() const noexcept { return stats_; }

  /// Cells the arena holds, live or dead. Growth sizes it to 4/3 of the live
  /// cells at the time, so it never exceeds 4/3 of the largest count()
  /// triangle the matrix has covered.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return arena_.capacity();
  }

  /// Most rows one extend() fetches from the engine per r2_block call.
  static constexpr std::size_t kFetchRows = 64;

 private:
  /// Cells in local rows [0, i): row i stores entries j = 0 .. i-1.
  [[nodiscard]] static std::size_t row_offset(std::size_t i) noexcept {
    return i * (i - 1) / 2;
  }

  /// Arena index of M(gi, 0): adding a global column index gj gives the cell
  /// of M(gi, gj). Origins are slot minus first column in modulo-2^64
  /// arithmetic, so they wrap for rows whose slot precedes their column.
  [[nodiscard]] std::size_t row_origin(std::size_t gi) const noexcept {
    return rows_[head_ + (gi - base_)];
  }

  /// Live slice of local row i (entry k is M(base + i, base + k)).
  [[nodiscard]] double* local_row(std::size_t i) noexcept {
    return arena_.data() + (row_origin(base_ + i) + base_);
  }

  /// Ensures `cells` free cells at the arena tail: compacts the live rows to
  /// the front when the tail runs out, then grows the arena if less than a
  /// quarter of it would stay free.
  void make_room(std::size_t cells);

  /// Cell store grown with std::realloc, which remaps a large block instead
  /// of copying it. Moving leaves the source empty, so a moved-from matrix
  /// is usable again after reset().
  class Arena {
   public:
    Arena() = default;
    Arena(Arena&& other) noexcept
        : cells_(std::exchange(other.cells_, nullptr)),
          capacity_(std::exchange(other.capacity_, 0)) {}
    Arena& operator=(Arena&& other) noexcept {
      std::swap(cells_, other.cells_);
      std::swap(capacity_, other.capacity_);
      return *this;
    }
    ~Arena() { std::free(cells_); }

    [[nodiscard]] double* data() const noexcept { return cells_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// Reallocates to `capacity` cells keeping the contents; throws
    /// std::bad_alloc, leaving the arena unchanged, when that fails.
    void resize(std::size_t capacity);

   private:
    double* cells_ = nullptr;
    std::size_t capacity_ = 0;
  };

  std::size_t base_ = 0;
  std::size_t count_ = 0;
  std::size_t head_ = 0;            // rows_[head_ + i] locates local row i
  std::vector<std::size_t> rows_;   // row origins, oldest first
  Arena arena_;
  std::size_t tail_ = 0;            // first cell no row occupies
  std::vector<float> r2_scratch_;   // one fetch block, <= kFetchRows rows
  std::uint64_t r2_fetches_ = 0;
  DpMatrixStats stats_;
};

}  // namespace omega::core
