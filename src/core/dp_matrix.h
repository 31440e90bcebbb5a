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
// Storage. Rows are addressed by *global* SNP indices so the scanner never
// translates coordinates. extend() writes each row once, as one contiguous
// run of cells in a slab of kSlabCells cells, and no cell is ever copied
// after that: relocation only advances base(), leaving the dropped columns
// of every kept row as dead cells in front of its live slice. Slabs fill in
// row order; a row that does not fit in the open slab's tail opens the next
// slab, taken from the matrix's free list or allocated when the list is
// empty. A row wider than a whole slab gets a slab of its own size.
//
// Retirement. Rows below first_row() are retired: they can no longer be
// read, and a slab returns to the free list (a row-sized slab is freed) once
// its last row is retired. relocate() retires every row below its first-row
// argument, except that it always keeps row end() - 1, the one the next
// extend() adds to. Grid scans retire at the split c (scan_driver.h): every
// reader of M at a position reads only row c and rows b in [b_min, hi], so
// rows below c are dead for every later position too. Retiring them keeps
// the dead prefixes that relocation leaves behind from piling up.
//
// Pointer contract. row_data(gi) points into the cells extend() wrote for
// row gi, and those cells stay put until row gi is retired or the matrix is
// reset: relocate() and extend() move no row, so a reader may hold row
// pointers across them.
//
// Memory bound. Let L be the most cells the live rows (first_row() to
// end()) ever hold at once, and W the widest count() the matrix covers.
// Row gi holds gi - col0 cells, where col0 is base() at the extend() that
// wrote it, so every row holds at most W - 1 cells. Because slabs fill in
// row order and rows retire oldest first, every slab in use except the
// oldest and the open one holds only live rows, and each was closed when a
// row of at most W - 1 cells did not fit in it, so it holds more than
// kSlabCells - W + 1 live cells. A slab is allocated only when the free list
// is empty, that is, when every slab is in use, so for W <= kSlabCells
//
//   capacity() <= kSlabCells * (2 + floor(L / (kSlabCells - W + 1))).
//
// The extend after a reset writes one triangle, W (W - 1) / 2 cells. A
// scan that retires at its split keeps R = hi - c + 1 rows, about half its
// window, so L <= R (W - 1) stays near that triangle; a sliding window that
// kept its rows down to base() would hold about W rows of about W cells,
// twice as many.
//
// Sign record. Pruned ω search (core/omega_kernel_body.h) needs M monotone
// in both indices, which holds when every r2 folded in is >= 0 and not NaN.
// r2_nonnegative() says whether that held for every r2 extend() folded in
// since the last reset: an engine that vouches for its range
// (LdEngine::r2_nonnegative) is trusted, and the used cells of any other
// engine's blocks are checked as they arrive. relocate() keeps the record.
//
// Entries are double: the CPU side is the precision reference; accelerator
// backends consume float casts of these sums exactly as OmegaPlus's host
// code feeds its accelerators.

#include <cstdint>
#include <memory>
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
};

class DpMatrix {
 public:
  DpMatrix() = default;

  /// Empties the matrix and anchors it at `base` (global index of local 0).
  /// Every slab goes back to the free list, and r2_nonnegative() is true
  /// again.
  void reset(std::size_t base);

  [[nodiscard]] std::size_t base() const noexcept { return base_; }
  /// One past the last covered global SNP index.
  [[nodiscard]] std::size_t end() const noexcept { return base_ + count_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Lowest row still held: rows [first_row(), end()) are readable.
  [[nodiscard]] std::size_t first_row() const noexcept { return first_row_; }

  /// M(gi, gj) for first_row() <= gi < end() and base() <= gj <= gi.
  /// M(gi, gi) == 0. Throws std::out_of_range otherwise, in particular for
  /// retired rows.
  [[nodiscard]] double at(std::size_t gi, std::size_t gj) const;

  /// Sum of r2 over all pairs within the inclusive global range [glo, ghi].
  [[nodiscard]] double range_sum(std::size_t glo, std::size_t ghi) const {
    return at(ghi, glo);
  }

  /// Unchecked accessor for the omega nested loop (the scan hot path); the
  /// caller guarantees first_row() <= gi < end() and base() <= gj <= gi.
  [[nodiscard]] double at_fast(std::size_t gi, std::size_t gj) const noexcept {
    if (gi == gj) return 0.0;
    const Row& row = row_of(gi);
    return row.cells[gj - row.col0];
  }

  /// Raw contiguous slice of row `gi`: entry k is M(gi, base() + k) for
  /// k = 0 .. gi - base() - 1. The diagonal M(gi, gi) is implicit (zero) and
  /// NOT part of the slice — vectorized kernels must only read columns
  /// strictly below gi. Caller guarantees first_row() <= gi < end(). The
  /// cells stay where they are until row gi is retired or the matrix is
  /// reset; a later relocate() to base b' moves the start of the slice to
  /// the cell of column b' within the same cells.
  [[nodiscard]] const double* row_data(std::size_t gi) const noexcept {
    const Row& row = row_of(gi);
    return row.cells + (base_ - row.col0);
  }

  /// Drops all columns before `new_base` (new_base >= base()) and retires
  /// every row below max(new_base, min(first_row, end() - 1)); the default
  /// retires the rows below new_base. Retired rows stay retired until the
  /// next reset. Copies no cells — this is the OmegaPlus relocation. A
  /// `new_base` at or past end() empties the matrix and counts as a reset.
  void relocate(std::size_t new_base, std::size_t first_row = 0);

  /// Grows coverage to [base, new_end) computing new rows via the Eq. (3)
  /// recurrence in telescoped form: row i equals row i-1 plus the suffix-sum
  /// of row i's fresh r2 values, so the per-cell 4-term dependency chain
  /// becomes one suffix scan per row (independent across rows) followed by a
  /// vectorizable row add. r2 values for the new rows are fetched from the
  /// engine in blocks of at most kFetchRows rows over the full column span
  /// [base, new_end - 1), so the fetch scratch stays small while every fetch
  /// count matches one whole-extend block. When `pool` is non-null, large
  /// extends tile the suffix-scan phase across it; results are bit-identical
  /// with or without a pool (per-row summation order is fixed). Reads only
  /// row end() - 1 of the existing rows. Throws std::out_of_range when
  /// new_end > engine.num_sites().
  void extend(std::size_t new_end, const ld::LdEngine& engine,
              par::ThreadPool* pool = nullptr);

  /// True when every r2 extend() folded in since the last reset was a
  /// finite float with its sign bit clear (see "Sign record" above).
  [[nodiscard]] bool r2_nonnegative() const noexcept { return r2_nonnegative_; }

  /// Number of r2 values fetched over the object's lifetime (reuse metric).
  [[nodiscard]] std::uint64_t r2_fetches() const noexcept { return r2_fetches_; }

  /// Lifetime reset/relocate/extend accounting (reuse observability).
  [[nodiscard]] const DpMatrixStats& stats() const noexcept { return stats_; }

  /// Cells held in slabs, in use or on the free list; see the memory bound
  /// in the header comment.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Most rows one extend() fetches from the engine per r2_block call.
  static constexpr std::size_t kFetchRows = 64;
  /// Cells per slab (1 MiB): a slab holds 65 rows of a default CLI scan's
  /// 2,000-row window, so the tail a closed slab leaves unused is under 2%
  /// of it.
  static constexpr std::size_t kSlabCells = std::size_t{1} << 17;

 private:
  /// Cells of one row as extend() wrote them: cells[k] = M(gi, col0 + k).
  struct Row {
    double* cells;
    std::size_t col0;
  };

  /// A run of cells that rows fill front to back.
  struct Slab {
    std::unique_ptr<double[]> cells;
    std::size_t size = 0;      // cells allocated
    std::size_t used = 0;      // cells the rows occupy, from the front
    std::size_t rows_end = 0;  // one past the last global row stored here
  };

  [[nodiscard]] const Row& row_of(std::size_t gi) const noexcept {
    return rows_[head_ + (gi - first_row_)];
  }

  /// Appends row gi with `cells` cells at the open slab's tail, opening the
  /// next slab when it does not fit.
  void place_row(std::size_t gi, std::size_t cells);

  /// Retires the rows below `row` (a no-op for rows already retired) and
  /// releases every slab whose rows are all retired.
  void retire_below(std::size_t row);

  /// Puts a slab whose rows are all retired on the free list, or frees it
  /// when it is row-sized.
  void release(Slab&& slab);

  std::size_t base_ = 0;
  std::size_t count_ = 0;
  std::size_t first_row_ = 0;
  std::size_t head_ = 0;           // rows_[head_] is row first_row_
  std::vector<Row> rows_;          // row descriptors, oldest first
  std::vector<Slab> slabs_;        // slabs in use, oldest first; back() open
  std::vector<Slab> free_;         // standard-size slabs with no rows
  std::size_t capacity_ = 0;       // cells of slabs_ and free_
  std::vector<float> r2_scratch_;  // one fetch block, <= kFetchRows rows
  bool r2_nonnegative_ = true;     // see r2_nonnegative()
  std::uint64_t r2_fetches_ = 0;
  DpMatrixStats stats_;
};

}  // namespace omega::core
