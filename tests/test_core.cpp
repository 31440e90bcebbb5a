// Tests for the core omega engine: the DP matrix (Eq. 3) against direct
// summation, relocation reuse equivalence, grid geometry, the nested-loop
// search against the brute-force oracle, buffer packing, and workload
// accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/integer_method.h"
#include "core/omega_kernel_cpu.h"
#include "core/omega_math.h"
#include "core/omega_search.h"
#include "core/reference.h"
#include "core/scan_driver.h"
#include "core/scanner.h"
#include "core/workload.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/r2.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "util/stats.h"
#include "sim/dataset_factory.h"

namespace {

using omega::core::CpuKernelKind;
using omega::core::DpMatrix;
using omega::core::DpMatrixStats;
using omega::core::GridPosition;
using omega::core::OmegaConfig;
using omega::io::Dataset;

Dataset test_dataset(std::size_t sites, std::size_t samples,
                     std::uint64_t seed) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = samples,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 15.0,
                                   .seed = seed});
}

double direct_range_sum(const Dataset& d, std::size_t lo, std::size_t hi) {
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    for (std::size_t j = lo; j < i; ++j) {
      sum += omega::ld::r2_naive(d, i, j);
    }
  }
  return sum;
}

TEST(OmegaMath, Choose2) {
  EXPECT_DOUBLE_EQ(omega::core::choose2(0), 0.0);
  EXPECT_DOUBLE_EQ(omega::core::choose2(1), 0.0);
  EXPECT_DOUBLE_EQ(omega::core::choose2(2), 1.0);
  EXPECT_DOUBLE_EQ(omega::core::choose2(5), 10.0);
}

TEST(OmegaMath, HandComputedOmega) {
  // l = 2, r = 2: numerator = (LS + RS) / 2, denominator = TS/4 + eps.
  const double omega =
      omega::core::omega_from_sums(1.0, 0.6, 0.2, 2, 2);
  EXPECT_NEAR(omega, (1.6 / 2.0) / (0.05 + 1e-5), 1e-9);
}

TEST(OmegaMath, ZeroCrossSumStaysFinite) {
  const double omega = omega::core::omega_from_sums(2.0, 2.0, 0.0, 3, 3);
  EXPECT_TRUE(std::isfinite(omega));
  EXPECT_GT(omega, 1e4);  // strong signal, bounded by the epsilon
}

TEST(OmegaMath, FloatAndDoubleAgree) {
  for (int i = 0; i < 50; ++i) {
    const double ls = 0.1 * i, rs = 0.07 * i, ts = 0.05 * i + 0.01;
    const std::size_t l = 2 + i % 7, r = 2 + i % 5;
    const double d = omega::core::omega_from_sums(ls, rs, ts, l, r);
    const float f = omega::core::omega_from_sums_f(
        static_cast<float>(ls), static_cast<float>(rs), static_cast<float>(ts),
        static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(r));
    EXPECT_NEAR(d, static_cast<double>(f), std::abs(d) * 1e-5 + 1e-7);
  }
}

TEST(DpMatrix, MatchesDirectSums) {
  const Dataset d = test_dataset(40, 30, 1);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(40, engine);
  for (std::size_t hi = 0; hi < 40; hi += 7) {
    for (std::size_t lo = 0; lo <= hi; lo += 5) {
      EXPECT_NEAR(m.range_sum(lo, hi), direct_range_sum(d, lo, hi),
                  1e-4 * (1.0 + direct_range_sum(d, lo, hi)))
          << lo << ".." << hi;
    }
  }
}

TEST(DpMatrix, DiagonalIsZero) {
  const Dataset d = test_dataset(10, 20, 2);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(10, engine);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
  }
}

TEST(DpMatrix, AdjacentEntryIsPairR2) {
  const Dataset d = test_dataset(12, 25, 3);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(12, engine);
  for (std::size_t i = 1; i < 12; ++i) {
    EXPECT_NEAR(m.at(i, i - 1), omega::ld::r2_naive(d, i, i - 1), 2e-6);
  }
}

TEST(DpMatrix, RelocationPreservesValues) {
  const Dataset d = test_dataset(50, 24, 4);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix moved;
  moved.reset(0);
  moved.extend(30, engine);
  moved.relocate(12);
  moved.extend(50, engine);

  DpMatrix fresh;
  fresh.reset(12);
  fresh.extend(50, engine);

  for (std::size_t i = 12; i < 50; ++i) {
    for (std::size_t j = 12; j <= i; ++j) {
      ASSERT_DOUBLE_EQ(moved.at(i, j), fresh.at(i, j)) << i << "," << j;
    }
  }
}

TEST(DpMatrix, RelocationSavesFetches) {
  const Dataset d = test_dataset(60, 24, 5);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix reused;
  reused.reset(0);
  reused.extend(40, engine);
  const auto before = reused.r2_fetches();
  reused.relocate(10);
  reused.extend(50, engine);
  const auto incremental = reused.r2_fetches() - before;

  DpMatrix rebuilt;
  rebuilt.reset(10);
  rebuilt.extend(50, engine);
  EXPECT_LT(incremental, rebuilt.r2_fetches());
}

TEST(DpMatrix, RelocatePastEndResets) {
  const Dataset d = test_dataset(30, 24, 6);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(10, engine);
  m.relocate(20);
  EXPECT_EQ(m.base(), 20u);
  EXPECT_EQ(m.count(), 0u);
  m.extend(30, engine);
  EXPECT_NEAR(m.range_sum(20, 29), direct_range_sum(d, 20, 29), 1e-4);
}

// Cells in a triangle of `rows` rows (row i holds i entries).
std::uint64_t triangle(std::size_t rows) {
  return rows == 0 ? 0 : static_cast<std::uint64_t>(rows) * (rows - 1) / 2;
}

// Counts cells of `m` that differ bitwise from `fresh` over m's rows,
// read both through at() and through row_data().
std::size_t bitwise_mismatches(const DpMatrix& m, const DpMatrix& fresh) {
  std::size_t mismatches = 0;
  for (std::size_t gi = m.first_row(); gi < m.end(); ++gi) {
    const double* row = m.row_data(gi);
    for (std::size_t gj = m.base(); gj <= gi; ++gj) {
      const double expected = fresh.at(gi, gj);
      if (std::bit_cast<std::uint64_t>(m.at(gi, gj)) !=
          std::bit_cast<std::uint64_t>(expected)) {
        ++mismatches;
      }
      if (gj < gi && std::bit_cast<std::uint64_t>(row[gj - m.base()]) !=
                         std::bit_cast<std::uint64_t>(expected)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// The slab bound of core/dp_matrix.h: a matrix whose live rows never held
// more than `live` cells at once, with every count() at most `widest`,
// holds at most kSlabCells * (2 + floor(live / (kSlabCells - widest + 1)))
// cells.
std::uint64_t slab_capacity_bound(std::uint64_t live, std::size_t widest) {
  const std::uint64_t slab = DpMatrix::kSlabCells;
  return slab * (2 + live / (slab - widest + 1));
}

// Drives one matrix through a seeded mix of the steps a scan produces —
// relocations by 0, 1, a few rows and most of the window, some retiring rows
// up to a first row inside or past the window, jumps past end() and back to
// the start (both reset), extends of 0, a few and more than kFetchRows rows
// — while the window widens, so rows fill and recycle many slabs. After
// every step each cell must equal, bit for bit, the cell of a matrix built
// from scratch over the same range, and the accounting must follow the
// reuse formulas.
TEST(DpMatrixArena, MatchesFreshMatrixBitwiseThroughLongSequence) {
  constexpr std::size_t kSites = 1200;
  const Dataset d = test_dataset(kSites, 16, 61);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  std::mt19937_64 rng(2022);

  DpMatrix m;
  m.reset(0);
  DpMatrixStats expected;
  expected.resets = 1;
  std::uint64_t expected_fetches = 0;
  std::size_t widest = 0;
  std::size_t retirements = 0;
  std::size_t multi_block_extends = 0;
  std::size_t past_end_resets = 0;
  for (std::size_t step = 0; step < 400; ++step) {
    const std::size_t max_width = 40 + step * 3 / 4;
    const std::size_t count = m.count();
    std::size_t delta = 0;
    switch (rng() % 16) {
      case 0: case 1: delta = 0; break;
      case 2: case 3: case 4: delta = 1; break;
      case 5: delta = count * 3 / 4; break;                  // most of it
      case 6: delta = count + rng() % 4; break;              // past end()
      default: delta = 2 + rng() % 4; break;                 // a few rows
    }
    // Retire at a split inside the window, past its end, or not at all.
    std::size_t first_row = 0;
    switch (rng() % 4) {
      case 0: first_row = m.base() + delta + rng() % (count / 2 + 1); break;
      case 1: first_row = m.end() + rng() % 8; break;
      default: break;
    }
    if (m.base() + delta + max_width > kSites) {
      m.reset(rng() % 16);  // back to the start, as a new scan would
      ++expected.resets;
    } else {
      const std::size_t first_row_before = m.first_row();
      m.relocate(m.base() + delta, first_row);
      if (delta > 0 && delta >= count) {
        ++expected.resets;
        ++past_end_resets;
        ASSERT_EQ(m.first_row(), m.base()) << "step " << step;
      } else {
        ++expected.relocations;
        expected.cells_reused += triangle(count - delta);
        const std::size_t keep = std::max(
            {first_row_before, m.base(), std::min(first_row, m.end() - 1)});
        ASSERT_EQ(m.first_row(), keep) << "step " << step;
        if (m.first_row() > m.base()) ++retirements;
      }
    }

    std::size_t width = max_width;  // refill the window, as a scan does
    switch (rng() % 5) {
      case 0: width = m.count(); break;
      case 1: width = std::min(max_width, m.count() + 1 + rng() % 4); break;
      default: break;
    }
    width = std::max(width, m.count());
    const std::size_t old_count = m.count();
    m.extend(m.base() + width, engine);
    if (width > old_count) {
      expected_fetches += static_cast<std::uint64_t>(width - old_count) *
                          (width - 1);
      expected.cells_recomputed += triangle(width) - triangle(old_count);
    }
    if (width - old_count > DpMatrix::kFetchRows) ++multi_block_extends;
    widest = std::max(widest, width);

    ASSERT_EQ(m.count(), width);
    ASSERT_EQ(m.r2_fetches(), expected_fetches) << "step " << step;
    ASSERT_EQ(m.stats().resets, expected.resets) << "step " << step;
    ASSERT_EQ(m.stats().relocations, expected.relocations) << "step " << step;
    ASSERT_EQ(m.stats().cells_reused, expected.cells_reused) << "step " << step;
    ASSERT_EQ(m.stats().cells_recomputed, expected.cells_recomputed)
        << "step " << step;
    // At most `widest` rows are live, each holding fewer than `widest` cells.
    ASSERT_LE(m.capacity(),
              slab_capacity_bound(std::uint64_t{widest} * (widest - 1), widest))
        << "step " << step;

    DpMatrix fresh;
    fresh.reset(m.base());
    fresh.extend(m.end(), engine);
    ASSERT_EQ(bitwise_mismatches(m, fresh), 0u)
        << "step " << step << " over [" << m.base() << ", " << m.end() << ")";
  }
  // The sequence really exercised every storage path: it wrote many slabs'
  // worth of cells through the few slabs it holds.
  EXPECT_GT(m.stats().cells_recomputed, 4 * m.capacity());
  EXPECT_GE(retirements, 50u);
  EXPECT_GE(multi_block_extends, 3u);
  EXPECT_GE(past_end_resets, 3u);
}

// Rows never move: through a long seeded walk of relocations, retirements,
// extends and resets, the last cell of every row, M(gi, gi - 1), stays at the
// address and value extend() gave it until the row is retired, while the
// slabs of retired rows are recycled for later ones.
TEST(DpMatrixArena, RowsNeverMove) {
  constexpr std::size_t kSites = 3000;
  const Dataset d = test_dataset(kSites, 8, 63);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  std::mt19937_64 rng(23);

  struct Written {
    const double* cell;
    double value;
  };
  std::vector<std::pair<std::size_t, Written>> held;  // by row, ascending
  std::size_t retired_rows = 0;
  DpMatrix m;
  m.reset(0);
  for (std::size_t step = 0; step < 1500; ++step) {
    const std::size_t width = 100 + rng() % 200;
    if (m.base() + width + 8 > kSites) {
      m.reset(rng() % 32);
    } else {
      const std::size_t new_base = m.base() + rng() % 8;
      const std::size_t split =
          new_base + rng() % (std::max(m.end(), new_base) - new_base + 2);
      m.relocate(new_base, rng() % 3 == 0 ? 0 : split);
    }
    // Forget what retired.
    std::size_t kept = 0;
    for (const auto& [gi, written] : held) {
      if (gi >= m.first_row() && gi < m.end()) {
        held[kept++] = {gi, written};
      } else {
        ++retired_rows;
      }
    }
    held.resize(kept);

    const std::size_t old_end = m.end();
    m.extend(std::max(m.end(), m.base() + width), engine);
    for (std::size_t gi = std::max(old_end, m.base() + 1); gi < m.end();
         ++gi) {
      const double* cell = m.row_data(gi) + (gi - 1 - m.base());
      held.push_back({gi, {cell, *cell}});
    }
    for (const auto& [gi, written] : held) {
      if (gi == m.base()) continue;  // its last cell is a dead column now
      ASSERT_EQ(m.row_data(gi) + (gi - 1 - m.base()), written.cell)
          << "row " << gi << " moved at step " << step;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(*written.cell),
                std::bit_cast<std::uint64_t>(written.value))
          << "row " << gi << " changed at step " << step;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.at(gi, gi - 1)),
                std::bit_cast<std::uint64_t>(written.value));
    }
  }
  EXPECT_GT(retired_rows, 4'000u);
  EXPECT_GT(m.stats().cells_recomputed, 4 * m.capacity());
}

TEST(DpMatrixArena, AtThrowsBelowFirstRow) {
  const Dataset d = test_dataset(60, 16, 64);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(50, engine);
  m.relocate(10, 30);
  EXPECT_EQ(m.base(), 10u);
  EXPECT_EQ(m.first_row(), 30u);
  EXPECT_THROW((void)m.at(29, 10), std::out_of_range);
  EXPECT_THROW((void)m.at(10, 10), std::out_of_range);
  EXPECT_THROW((void)m.at(30, 9), std::out_of_range);  // column below base

  DpMatrix fresh;
  fresh.reset(10);
  fresh.extend(50, engine);
  EXPECT_EQ(bitwise_mismatches(m, fresh), 0u);
  EXPECT_DOUBLE_EQ(m.at(30, 30), 0.0);

  // A lower first row later does not bring retired rows back.
  m.relocate(12);
  EXPECT_EQ(m.first_row(), 30u);
  EXPECT_THROW((void)m.at(29, 12), std::out_of_range);
}

// A first row past end() - 1 keeps the last row, which is all extend()
// needs: the next extend matches a fresh matrix bit for bit.
TEST(DpMatrixArena, RetiringPastTheEndKeepsTheLastRow) {
  const Dataset d = test_dataset(80, 16, 65);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(40, engine);
  m.relocate(5, 1'000);
  EXPECT_EQ(m.first_row(), 39u);
  EXPECT_EQ(m.count(), 35u);
  EXPECT_THROW((void)m.at(38, 5), std::out_of_range);
  m.extend(80, engine);

  DpMatrix fresh;
  fresh.reset(5);
  fresh.extend(80, engine);
  EXPECT_EQ(bitwise_mismatches(m, fresh), 0u);
  EXPECT_EQ(m.r2_fetches(), 40u * 39u + 40u * 74u);
}

/// Serves r2 = 0 for every pair: replays a walk's storage without LD work.
class ZeroLd final : public omega::ld::LdEngine {
 public:
  explicit ZeroLd(std::size_t sites) : sites_(sites) {}
  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                std::size_t j1, float* out, std::size_t ld) const override {
    for (std::size_t i = i0; i < i1; ++i) {
      std::fill_n(out + (i - i0) * ld, j1 - j0, 0.0f);
    }
  }
  [[nodiscard]] std::string name() const override { return "zero"; }
  [[nodiscard]] std::size_t num_sites() const override { return sites_; }

 private:
  std::size_t sites_;
};

// The memory guard of the stream shape: a 2,000-row window stepping 200 rows
// per position and retiring at the split, as a default CLI scan of a
// 100-bp-spaced VCF walks it. The first extend holds one triangle, and after
// that rows c .. hi (1,000 of them, each under 2,000 cells) are live, so the
// live rows never hold more than 1,999,000 cells and the slab bound is 17
// slabs, 2,228,224 cells. An arena that kept rows down to lo and compacted
// them held 2,665,333 cells at this shape.
TEST(DpMatrixArena, StreamShapeFootprintStaysInSlabBound) {
  constexpr std::size_t kWindow = 2'000;
  constexpr std::size_t kStep = 200;
  constexpr std::size_t kPositions = 40;
  const ZeroLd engine(kWindow + kStep * kPositions);
  const std::uint64_t live =
      std::max(triangle(kWindow), std::uint64_t{kWindow / 2} * (kWindow - 1));
  const std::uint64_t bound = slab_capacity_bound(live, kWindow);
  ASSERT_EQ(bound, 17u * DpMatrix::kSlabCells);

  DpMatrix m;
  m.reset(0);
  for (std::size_t k = 0; k < kPositions; ++k) {
    const std::size_t lo = k * kStep;
    const std::size_t c = lo + kWindow / 2;  // the split: rows c .. hi live
    m.relocate(lo, c);
    m.extend(lo + kWindow, engine);
    if (k > 0) ASSERT_EQ(m.end() - m.first_row(), kWindow / 2);
    ASSERT_LE(m.capacity(), bound) << "position " << k;
  }
  EXPECT_EQ(m.stats().resets, 1u);
  EXPECT_EQ(m.stats().relocations, kPositions);
}

// A position whose split falls below the rows the matrix still holds must
// rebuild M although its left border is still covered: relocating to it
// would read retired rows. Advanced through the scan's one policy, every
// position of a hand-built walk scores exactly as on a matrix built from
// scratch for it, with every kernel.
TEST(AdvanceMatrix, SplitBelowFirstRowResets) {
  const Dataset d = test_dataset(200, 16, 66);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  const auto position = [](std::size_t lo, std::size_t a_max, std::size_t c,
                           std::size_t b_min, std::size_t hi) {
    GridPosition p;
    p.lo = lo;
    p.a_max = a_max;
    p.c = c;
    p.b_min = b_min;
    p.hi = hi;
    p.valid = true;
    return p;
  };
  const std::vector<GridPosition> walk = {
      position(0, 40, 60, 65, 119),   // the matrix starts dead: reset
      position(5, 45, 60, 66, 120),   // relocates, retiring rows below 60
      position(10, 30, 40, 45, 100),  // lo >= base() but c < first_row()
      position(20, 50, 70, 75, 150),  // in order again: relocates
  };
  const std::vector<bool> relocates = {false, true, false, true};
  std::vector<CpuKernelKind> kinds = {CpuKernelKind::Scalar,
                                      CpuKernelKind::Portable};
  kinds.push_back(omega::core::resolve_cpu_kernel(CpuKernelKind::Auto));

  DpMatrix m;
  bool live = false;
  for (std::size_t k = 0; k < walk.size(); ++k) {
    const GridPosition& p = walk[k];
    EXPECT_EQ(omega::core::detail::can_relocate(m, live, true, p),
              relocates[k])
        << "position " << k;
    const std::uint64_t resets = m.stats().resets;
    omega::core::detail::advance_matrix(m, live, true, p, engine);
    EXPECT_EQ(m.stats().resets - resets, relocates[k] ? 0u : 1u)
        << "position " << k;
    EXPECT_LE(m.first_row(), p.c);

    DpMatrix fresh;
    fresh.reset(p.lo);
    fresh.extend(p.hi + 1, engine);
    for (const CpuKernelKind kind : kinds) {
      omega::core::OmegaKernelScratch scratch;
      const auto got = omega::core::omega_kernel_search(m, p, kind, scratch);
      const auto want =
          omega::core::omega_kernel_search(fresh, p, kind, scratch);
      EXPECT_GT(got.evaluated, 0u);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_omega),
                std::bit_cast<std::uint64_t>(want.max_omega))
          << "position " << k << " kernel "
          << omega::core::cpu_kernel_name(kind);
      EXPECT_EQ(got.best_a, want.best_a);
      EXPECT_EQ(got.best_b, want.best_b);
      EXPECT_EQ(got.evaluated, want.evaluated);
    }
  }
  EXPECT_EQ(m.stats().resets, 2u);
  EXPECT_EQ(m.stats().relocations, 2u);
}

TEST(DpMatrix, BackwardRelocationThrows) {
  DpMatrix m;
  m.reset(10);
  EXPECT_THROW(m.relocate(5), std::invalid_argument);
}

TEST(DpMatrix, ExtendPastEngineThrows) {
  const Dataset d = test_dataset(10, 24, 7);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(4);
  EXPECT_THROW(m.extend(11, engine), std::out_of_range);
  EXPECT_EQ(m.end(), 4u) << "a refused extend leaves the matrix as it was";
  EXPECT_EQ(m.r2_fetches(), 0u);
  m.extend(10, engine);  // up to the last site is legal
  EXPECT_EQ(m.end(), 10u);

  // A streamed chunk's engine reports offset + chunk sites, so extends in
  // global indices reach the chunk's last site and no further.
  const omega::ld::OffsetLd chunk(engine, 100);
  DpMatrix streamed;
  streamed.reset(103);
  streamed.extend(110, chunk);
  EXPECT_EQ(streamed.end(), 110u);
  EXPECT_DOUBLE_EQ(streamed.at(109, 104), m.at(9, 4));
  EXPECT_THROW(streamed.extend(111, chunk), std::out_of_range);
}

TEST(DpMatrix, OutOfRangeAccessThrows) {
  const Dataset d = test_dataset(10, 24, 7);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(2);
  m.extend(8, engine);
  EXPECT_THROW((void)m.at(8, 2), std::out_of_range);
  EXPECT_THROW((void)m.at(7, 1), std::out_of_range);
  EXPECT_THROW((void)m.at(3, 5), std::out_of_range);  // j > i
}

// ---------------------------------------------------------------------------
// Grid geometry
// ---------------------------------------------------------------------------

TEST(Grid, CombinationCountMatchesEnumeration) {
  const Dataset d = test_dataset(80, 20, 8);
  OmegaConfig config;
  config.grid_size = 9;
  config.max_window = 400'000;
  config.min_window = 10'000;
  const auto grid = omega::core::build_grid(d, config);
  ASSERT_EQ(grid.size(), 9u);
  for (const auto& position : grid) {
    if (!position.valid) continue;
    std::uint64_t manual = 0;
    for (std::size_t a = position.lo; a <= position.a_max; ++a) {
      for (std::size_t b = position.b_min; b <= position.hi; ++b) {
        ++manual;
        ASSERT_GE(position.c - a + 1, 2u);  // l >= 2
        ASSERT_GE(b - position.c, 2u);      // r >= 2
      }
    }
    EXPECT_EQ(position.combinations(), manual);
  }
}

TEST(Grid, RespectsBpWindows) {
  const Dataset d = test_dataset(100, 20, 9);
  OmegaConfig config;
  config.grid_size = 5;
  config.max_window = 100'000;
  config.min_window = 20'000;
  for (const auto& position : omega::core::build_grid(d, config)) {
    if (!position.valid) continue;
    // Region bounded by max_window/2 per side.
    EXPECT_GE(d.position(position.lo), position.position_bp - 50'000);
    EXPECT_LE(d.position(position.hi), position.position_bp + 50'000);
    // Borders honour min_window/2.
    EXPECT_LE(d.position(position.a_max), position.position_bp - 10'000);
    EXPECT_GE(d.position(position.b_min), position.position_bp + 10'000);
  }
}

TEST(Grid, SnpWindowUnit) {
  const Dataset d = test_dataset(200, 20, 10);
  OmegaConfig config;
  config.grid_size = 3;
  config.window_unit = omega::core::WindowUnit::Snps;
  config.max_window = 60;  // 30 SNPs per side
  config.min_window = 10;  // 5 SNPs per side minimum
  for (const auto& position : omega::core::build_grid(d, config)) {
    if (!position.valid) continue;
    EXPECT_LE(position.left_snps(), 30u);
    EXPECT_LE(position.right_snps(), 30u);
    EXPECT_GE(position.c - position.a_max + 1, 5u);
    EXPECT_GE(position.b_min - position.c, 5u);
  }
}

TEST(Grid, SideCapLimitsRegion) {
  const Dataset d = test_dataset(150, 20, 11);
  OmegaConfig config;
  config.grid_size = 3;
  config.max_window = 2'000'000;
  config.min_window = 2;
  config.max_snps_per_side = 20;
  for (const auto& position : omega::core::build_grid(d, config)) {
    if (!position.valid) continue;
    EXPECT_LE(position.left_snps(), 20u);
    EXPECT_LE(position.right_snps(), 20u);
  }
}

TEST(Grid, InvalidWhenOffTheData) {
  const Dataset d = test_dataset(50, 20, 12);
  OmegaConfig config;
  const auto before_first = omega::core::resolve_position(
      d.positions(), config, d.positions().front() - 1000);
  EXPECT_FALSE(before_first.valid);
  const auto past_last = omega::core::resolve_position(
      d.positions(), config, d.positions().back() + 1);
  EXPECT_FALSE(past_last.valid);
}

TEST(Grid, TinyDatasetInvalid) {
  const Dataset d({10, 20, 30}, {{0, 1}, {1, 0}, {0, 1}}, 100);
  OmegaConfig config;
  const auto position =
      omega::core::resolve_position(d.positions(), config, 20);
  EXPECT_FALSE(position.valid);  // cannot satisfy l,r >= 2
}

TEST(Grid, ConfigValidation) {
  OmegaConfig config;
  config.grid_size = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.grid_size = 10;
  config.max_window = 5;
  config.min_window = 10;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Max-omega search vs brute force
// ---------------------------------------------------------------------------

struct SearchCase {
  std::size_t sites;
  std::size_t samples;
  std::int64_t max_window;
  std::int64_t min_window;
  std::uint64_t seed;
};

class SearchVsBrute : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchVsBrute, MaxOmegaAgrees) {
  const auto param = GetParam();
  const Dataset d = test_dataset(param.sites, param.samples, param.seed);
  OmegaConfig config;
  config.grid_size = 5;
  config.max_window = param.max_window;
  config.min_window = param.min_window;
  const auto grid = omega::core::build_grid(d, config);

  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);

  for (const auto& position : grid) {
    if (!position.valid) continue;
    DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
    const auto fast = omega::core::max_omega_search(m, position);
    const auto brute = omega::core::brute_force_position(d, position);
    ASSERT_EQ(fast.evaluated, brute.evaluated);
    ASSERT_NEAR(fast.max_omega, brute.max_omega,
                1e-3 * (1.0 + brute.max_omega));
    // The winning window must score within noise of the brute-force optimum
    // (float r2 accumulation may swap exact argmax between near-ties).
    const double fast_window_score = omega::core::brute_force_omega(
        d, fast.best_a, position.c, fast.best_b);
    EXPECT_NEAR(fast_window_score, brute.max_omega,
                1e-3 * (1.0 + brute.max_omega));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SearchVsBrute,
    ::testing::Values(SearchCase{30, 20, 600'000, 2, 21},
                      SearchCase{40, 12, 300'000, 50'000, 22},
                      SearchCase{25, 40, 1'000'000, 2, 23},
                      SearchCase{50, 16, 200'000, 20'000, 24},
                      SearchCase{35, 30, 2'000'000, 100'000, 25}));

TEST(PackPosition, BuffersMatchMatrix) {
  const Dataset d = test_dataset(40, 20, 31);
  OmegaConfig config;
  config.grid_size = 3;
  config.max_window = 800'000;
  const auto grid = omega::core::build_grid(d, config);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  for (const auto& position : grid) {
    if (!position.valid) continue;
    DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
    const auto buffers = omega::core::pack_position(m, position);
    ASSERT_EQ(buffers.combinations(), position.combinations());
    for (std::size_t ai = 0; ai < buffers.num_left; ++ai) {
      const std::size_t a = position.lo + ai;
      ASSERT_FLOAT_EQ(buffers.ls[ai],
                      static_cast<float>(m.at(position.c, a)));
      ASSERT_EQ(buffers.l_counts[ai], position.c - a + 1);
    }
    for (std::size_t bi = 0; bi < buffers.num_right; ++bi) {
      const std::size_t b = position.b_min + bi;
      ASSERT_FLOAT_EQ(buffers.rs[bi],
                      static_cast<float>(m.at(b, position.c + 1)));
    }
    // The geometry payload formula counts exactly the packed buffers.
    const std::size_t packed_bytes =
        (buffers.ls.size() + buffers.rs.size() + buffers.k.size() +
         buffers.m_binom.size() + buffers.total.size()) *
            sizeof(float) +
        (buffers.l_counts.size() + buffers.r_counts.size()) *
            sizeof(std::uint32_t);
    EXPECT_GT(packed_bytes, 0u);
    EXPECT_EQ(omega::core::omega_payload_bytes(position), packed_bytes);
  }
}

// ---------------------------------------------------------------------------
// Integer-method baseline
// ---------------------------------------------------------------------------

TEST(IntegerMethod, ScoresSameGridGeometry) {
  const Dataset d = test_dataset(120, 30, 51);
  OmegaConfig config;
  config.grid_size = 10;
  config.max_window = 300'000;
  config.min_window = 10'000;
  const auto integer = omega::core::integer_method_scan(d, config);
  omega::core::ScannerOptions options;
  options.config = config;
  const auto exact = omega::core::scan(d, options);
  ASSERT_EQ(integer.scores.size(), exact.scores.size());
  for (std::size_t g = 0; g < integer.scores.size(); ++g) {
    EXPECT_EQ(integer.scores[g].valid, exact.scores[g].valid);
    EXPECT_EQ(integer.scores[g].evaluated, exact.scores[g].evaluated);
    if (integer.scores[g].valid) {
      EXPECT_GE(integer.scores[g].max_omega, 0.0);
      EXPECT_TRUE(std::isfinite(integer.scores[g].max_omega));
    }
  }
}

TEST(IntegerMethod, CorrelatesWithOmegaLandscape) {
  const Dataset d = test_dataset(200, 40, 52);
  OmegaConfig config;
  config.grid_size = 20;
  config.max_window = 250'000;
  config.min_window = 20'000;
  const auto integer = omega::core::integer_method_scan(d, config);
  omega::core::ScannerOptions options;
  options.config = config;
  const auto exact = omega::core::scan(d, options);
  std::vector<double> a, b;
  for (std::size_t g = 0; g < exact.scores.size(); ++g) {
    if (!exact.scores[g].valid) continue;
    a.push_back(exact.scores[g].max_omega);
    b.push_back(integer.scores[g].max_omega);
  }
  ASSERT_GT(a.size(), 5u);
  // Related but distinct statistics: positive correlation, not identity.
  EXPECT_GT(omega::util::spearman(a, b), 0.2);
}

TEST(Spearman, HandCases) {
  EXPECT_DOUBLE_EQ(omega::util::spearman({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
  EXPECT_DOUBLE_EQ(omega::util::spearman({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0);
  // Monotone but nonlinear is still rank-perfect.
  EXPECT_DOUBLE_EQ(omega::util::spearman({1, 2, 3, 4}, {1, 10, 100, 1000}), 1.0);
  // Ties get averaged ranks.
  const double tied = omega::util::spearman({1, 2, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(tied, 0.8);
  EXPECT_LT(tied, 1.0);
}

// ---------------------------------------------------------------------------
// Workload accounting
// ---------------------------------------------------------------------------

TEST(Workload, MatchesGridCombinations) {
  const Dataset d = test_dataset(120, 20, 41);
  OmegaConfig config;
  config.grid_size = 12;
  config.max_window = 300'000;
  config.min_window = 10'000;
  const auto workload = omega::core::analyze_workload(d, config);
  const auto grid = omega::core::build_grid(d, config);
  ASSERT_EQ(workload.positions.size(), grid.size());
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    EXPECT_EQ(workload.positions[g].combinations, grid[g].combinations());
    total += grid[g].combinations();
  }
  EXPECT_EQ(workload.total_combinations, total);
  EXPECT_LE(workload.total_r2_with_reuse, workload.total_r2_without_reuse);
}

TEST(Workload, ReuseAccountingMatchesDpMatrix) {
  const Dataset d = test_dataset(100, 20, 42);
  OmegaConfig config;
  config.grid_size = 8;
  config.max_window = 250'000;
  config.min_window = 5'000;
  const auto workload = omega::core::analyze_workload(d, config);

  // Replay the scanner's relocate/extend sequence and compare fetch counts.
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  bool live = false;
  std::uint64_t previous = 0;
  for (const auto& item : workload.positions) {
    if (!item.geometry.valid) continue;
    if (!live) {
      m.reset(item.geometry.lo);
      live = true;
    } else {
      m.relocate(item.geometry.lo);
    }
    m.extend(item.geometry.hi + 1, engine);
    EXPECT_EQ(m.r2_fetches() - previous, item.r2_with_reuse);
    previous = m.r2_fetches();
  }
  EXPECT_EQ(m.r2_fetches(), workload.total_r2_with_reuse);
}

}  // namespace
