// Kernel-equivalence property tests for the dispatched CPU omega kernels
// (core/omega_kernel_cpu.h): the portable body and the vector instances of
// the width-generic body (avx2, avx512) must reproduce the scalar reference
// argmax exactly and its scores within ulp-scaled tolerance, and every
// vector instance must match one scalar model of its op order bit for bit.
// The Avx2* tests predate the AVX-512 instance: each runs every vector
// instance this binary and host can run, and skips cleanly when there is
// none.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/metrics_json.h"
#include "core/omega_kernel_body.h"
#include "core/omega_kernel_cpu.h"
#include "core/omega_math.h"
#include "core/omega_search.h"
#include "core/scanner.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/packed.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/cpu_features.h"
#include "util/prng.h"

namespace {

using omega::core::CpuKernelKind;
using omega::core::DpMatrix;
using omega::core::GridPosition;
using omega::core::OmegaConfig;
using omega::core::OmegaKernelScratch;
using omega::core::OmegaPositionView;
using omega::core::OmegaResult;
using omega::core::OmegaViewBest;
using omega::io::Dataset;

/// The vector instances of the width-generic body this binary and host run.
std::vector<CpuKernelKind> vector_instances() {
  std::vector<CpuKernelKind> kinds;
  for (CpuKernelKind kind : {CpuKernelKind::Avx2, CpuKernelKind::Avx512}) {
    if (omega::core::cpu_kernel_available(kind)) kinds.push_back(kind);
  }
  return kinds;
}

constexpr const char* kNoVectorInstance =
    "no vector omega kernel runs on this binary/host";

Dataset kernel_dataset(std::uint64_t seed, std::size_t sites = 120,
                       std::size_t samples = 40) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = samples,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 30.0,
                                   .seed = seed});
}

Dataset missing_dataset(std::uint64_t seed, std::size_t sites = 90,
                        double missing_rate = 0.12) {
  Dataset base = kernel_dataset(seed, sites, 36);
  omega::util::Xoshiro256 rng(seed ^ 0xfeed);
  std::vector<std::int64_t> positions(base.positions());
  std::vector<std::vector<std::uint8_t>> rows(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    rows[s] = base.site(s);
    for (auto& allele : rows[s]) {
      if (rng.uniform() < missing_rate) allele = Dataset::kMissing;
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 base.locus_length_bp());
}

OmegaConfig kernel_config() {
  OmegaConfig config;
  config.grid_size = 10;
  config.max_window = 300'000;
  config.min_window = 10'000;
  return config;
}

/// Dataset + LD engine + a DP matrix rebuilt per position.
struct KernelFixture {
  explicit KernelFixture(Dataset data)
      : dataset(std::move(data)), snps(dataset), engine(snps) {}

  void build(const GridPosition& position) {
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
  }

  Dataset dataset;
  omega::ld::SnpMatrix snps;
  omega::ld::PopcountLd engine;
  DpMatrix m;
};

/// Reference vs candidate: identical work and argmax, scores within a
/// relative tolerance (the fused-divide kernels differ from the 3-divide
/// reference only in rounding).
void expect_equivalent(const OmegaResult& ref, const OmegaResult& got,
                       const char* label) {
  EXPECT_EQ(got.evaluated, ref.evaluated) << label;
  EXPECT_NEAR(got.max_omega, ref.max_omega, 1e-9 * (1.0 + ref.max_omega))
      << label;
  EXPECT_EQ(got.best_a, ref.best_a) << label;
  EXPECT_EQ(got.best_b, ref.best_b) << label;
}

void check_kernel_on_dataset(Dataset dataset, CpuKernelKind kind) {
  KernelFixture fx(std::move(dataset));
  const auto grid = omega::core::build_grid(fx.dataset, kernel_config());
  OmegaKernelScratch scratch;
  std::size_t checked = 0;
  for (const auto& position : grid) {
    if (!position.valid) continue;
    fx.build(position);
    const OmegaResult ref = omega::core::max_omega_search(fx.m, position);
    const OmegaResult got =
        omega::core::omega_kernel_search(fx.m, position, kind, scratch);
    expect_equivalent(ref, got, omega::core::cpu_kernel_name(kind));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(KernelEquivalence, PortableMatchesScalarOnRandomGrids) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    check_kernel_on_dataset(kernel_dataset(seed), CpuKernelKind::Portable);
  }
}

TEST(KernelEquivalence, Avx2MatchesScalarOnRandomGrids) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  for (CpuKernelKind kind : kinds) {
    for (std::uint64_t seed : {1u, 7u, 23u}) {
      check_kernel_on_dataset(kernel_dataset(seed), kind);
    }
  }
}

TEST(KernelEquivalence, PortableMatchesScalarWithMissingData) {
  check_kernel_on_dataset(missing_dataset(11), CpuKernelKind::Portable);
}

TEST(KernelEquivalence, Avx2MatchesScalarWithMissingData) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  for (CpuKernelKind kind : kinds) {
    check_kernel_on_dataset(missing_dataset(11), kind);
  }
}

// Degenerate geometry: positions allowing l == 1 and r == 1 windows
// (pairs == 0 must score omega = 0, not NaN) and odd left-region widths that
// exercise every vector-tail length.
TEST(KernelEquivalence, DegenerateWindowsAndTails) {
  KernelFixture fx(kernel_dataset(5, 40, 24));
  GridPosition position;
  position.valid = true;
  position.position_bp = 0;
  for (std::size_t c = 1; c + 2 < 40; c += 3) {
    position.lo = c >= 8 ? c - 8 : 0;
    position.c = c;
    position.a_max = c;      // allows a == c -> l == 1
    position.b_min = c + 1;  // allows b == c+1 -> r == 1
    position.hi = std::min<std::size_t>(c + 9, 39);
    fx.build(position);
    OmegaKernelScratch scratch;
    const OmegaResult ref = omega::core::max_omega_search(fx.m, position);
    expect_equivalent(ref,
                      omega::core::omega_kernel_search(
                          fx.m, position, CpuKernelKind::Portable, scratch),
                      "portable-degenerate");
    expect_equivalent(ref,
                      omega::core::omega_kernel_search(
                          fx.m, position, CpuKernelKind::Scalar, scratch),
                      "scalar-degenerate");
    for (CpuKernelKind kind : vector_instances()) {
      expect_equivalent(ref,
                        omega::core::omega_kernel_search(fx.m, position, kind,
                                                         scratch),
                        omega::core::cpu_kernel_name(kind));
    }
  }
}

// Zero cross-sum: left sites carry one haplotype pattern, right sites an
// uncorrelated one, so every cross-region r2 is exactly 0 and the Eq. (2)
// denominator collapses to the eps guard — the pole-adjacent regime where
// the fused-divide algebra is most stressed.
TEST(KernelEquivalence, ZeroCrossSumRegion) {
  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<std::int64_t> positions;
  for (int s = 0; s < 4; ++s) {
    rows.push_back({1, 1, 0, 0});  // left block: mutually identical
    positions.push_back(100 * (s + 1));
  }
  for (int s = 0; s < 4; ++s) {
    rows.push_back({1, 0, 1, 0});  // right block: r2 vs left block == 0
    positions.push_back(100 * (s + 5));
  }
  KernelFixture fx(Dataset(std::move(positions), std::move(rows), 1'000));

  GridPosition position;
  position.valid = true;
  position.lo = 0;
  position.c = 3;
  position.a_max = 2;
  position.b_min = 5;
  position.hi = 7;
  fx.build(position);
  // Sanity: the best window's cross-sum really is zero.
  EXPECT_DOUBLE_EQ(fx.m.at_fast(7, 0) - fx.m.at_fast(3, 0) -
                       fx.m.at_fast(7, 4),
                   0.0);

  OmegaKernelScratch scratch;
  const OmegaResult ref = omega::core::max_omega_search(fx.m, position);
  EXPECT_GT(ref.max_omega, 0.0);

  // This construction makes several windows score exactly 1/eps, so the
  // argmax is a multi-way tie that the fused-divide kernels may break at a
  // different ulp than the 3-divide reference. Require the same max (within
  // tolerance) and that the reported window is a co-maximizer under the
  // reference arithmetic — not a specific tie winner.
  const auto check_comaximal = [&](const OmegaResult& got, const char* label) {
    EXPECT_EQ(got.evaluated, ref.evaluated) << label;
    EXPECT_NEAR(got.max_omega, ref.max_omega, 1e-9 * (1.0 + ref.max_omega))
        << label;
    const std::size_t a = got.best_a, b = got.best_b;
    const double ls = fx.m.at_fast(position.c, a);
    const double rs = fx.m.at_fast(b, position.c + 1);
    const double cross = fx.m.at_fast(b, a) - ls - rs;
    const double w = omega::core::omega_from_sums(
        ls, rs, cross, position.c - a + 1, b - position.c);
    EXPECT_NEAR(w, ref.max_omega, 1e-9 * (1.0 + ref.max_omega)) << label;
  };
  check_comaximal(omega::core::omega_kernel_search(
                      fx.m, position, CpuKernelKind::Portable, scratch),
                  "portable-zero-cross");
  for (CpuKernelKind kind : vector_instances()) {
    check_comaximal(
        omega::core::omega_kernel_search(fx.m, position, kind, scratch),
        omega::core::cpu_kernel_name(kind));
  }
}

// ------------------------------- vector instances, bit for bit --

/// Owns the tables of a view built straight from M (not through
/// OmegaKernelScratch), or filled by hand.
struct ViewTables {
  std::vector<double> ls, kl, l, rs, kr, r;
  std::vector<std::vector<double>> rows;
  std::vector<const double*> row_ptrs;

  [[nodiscard]] OmegaPositionView view() {
    row_ptrs.clear();
    for (const auto& row : rows) row_ptrs.push_back(row.data());
    return OmegaPositionView{ls.data(), kl.data(), l.data(), ls.size(),
                             row_ptrs.data(), rs.data(), kr.data(), r.data(),
                             rs.size()};
  }
};

ViewTables matrix_tables(const DpMatrix& m, const GridPosition& position,
                         std::size_t b_begin, std::size_t b_end) {
  ViewTables t;
  const std::size_t c = position.c;
  for (std::size_t a = position.lo; a <= position.a_max; ++a) {
    t.ls.push_back(m.at_fast(c, a));
    t.kl.push_back(omega::core::choose2(c - a + 1));
    t.l.push_back(static_cast<double>(c - a + 1));
  }
  for (std::size_t b = b_begin; b <= b_end; ++b) {
    t.rs.push_back(m.at_fast(b, c + 1));
    t.kr.push_back(omega::core::choose2(b - c));
    t.r.push_back(static_cast<double>(b - c));
    std::vector<double> row;
    for (std::size_t a = position.lo; a <= position.a_max; ++a) {
      row.push_back(m.at_fast(b, a));
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

struct Candidate {
  double num, den, omega;
};

/// One candidate in the vector bodies' op order (omega_kernel_body.h), with
/// their fmadd written as std::fma.
Candidate fused_candidate(const OmegaPositionView& v, std::size_t ai,
                          std::size_t bi) {
  const double eps = OmegaConfig::denominator_offset;
  const double lr = v.l[ai] * v.r[bi];
  const double sum = v.ls[ai] + v.rs[bi];
  const double cross = v.rows[bi][ai] - sum;
  const double pairs = v.kl[ai] + v.kr[bi];
  const double num = sum * lr;
  const double den = pairs * std::fma(eps, lr, cross);
  return {num, den, pairs > 0.0 ? num / den : 0.0};
}

/// Scalar model of the vector bodies: every candidate in their op order,
/// keeping the first strict maximum in b-major, a-ascending order. The
/// bodies score four right borders per pass and skip the divide of vectors
/// that cannot win; this model does neither, so agreement shows that
/// neither changes a result.
OmegaViewBest op_order_oracle(const OmegaPositionView& view) {
  OmegaViewBest best{0.0, 0, 0};
  for (std::size_t bi = 0; bi < view.n_right; ++bi) {
    for (std::size_t ai = 0; ai < view.n_left; ++ai) {
      const double w = fused_candidate(view, ai, bi).omega;
      if (w > best.value) best = {w, ai, bi};
    }
  }
  return best;
}

void expect_bitwise(const OmegaResult& expected, const OmegaResult& got,
                    const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_omega),
            std::bit_cast<std::uint64_t>(expected.max_omega))
      << label << ": " << got.max_omega << " vs " << expected.max_omega;
  EXPECT_EQ(got.best_a, expected.best_a) << label;
  EXPECT_EQ(got.best_b, expected.best_b) << label;
  EXPECT_EQ(got.evaluated, expected.evaluated) << label;
}

void expect_bitwise(const OmegaViewBest& expected, const OmegaViewBest& got,
                    const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(expected.value))
      << label << ": " << got.value << " vs " << expected.value;
  EXPECT_EQ(got.ai, expected.ai) << label;
  EXPECT_EQ(got.bi, expected.bi) << label;
}

/// Runs `kind` over right borders [b_begin, b_end] of `position`, through
/// the view OmegaKernelScratch builds, against the oracle over a view built
/// straight from M.
void check_range_against_oracle(CpuKernelKind kind, const DpMatrix& m,
                                const GridPosition& position,
                                std::size_t b_begin, std::size_t b_end,
                                const std::string& label) {
  ViewTables tables = matrix_tables(m, position, b_begin, b_end);
  OmegaKernelScratch scratch;
  expect_bitwise(op_order_oracle(tables.view()),
                 omega::core::omega_kernel_search_view(
                     scratch.view(m, position, b_begin, b_end, kind), kind,
                     scratch.omega),
                 label + " " + omega::core::cpu_kernel_name(kind) +
                     " range [" + std::to_string(b_begin) + ", " +
                     std::to_string(b_end) + "]");
}

/// Runs every vector instance over the whole right-border range of
/// `position` through omega_kernel_search, and over a few random sub-ranges
/// through the view, each against the oracle.
void check_against_oracle(const std::vector<CpuKernelKind>& kinds,
                          const DpMatrix& m, const GridPosition& position,
                          omega::util::Xoshiro256& rng,
                          const std::string& label) {
  ViewTables tables = matrix_tables(m, position, position.b_min, position.hi);
  const OmegaViewBest want = op_order_oracle(tables.view());
  OmegaResult expected;
  expected.evaluated = tables.rs.size() * tables.ls.size();
  expected.max_omega = want.value;
  if (want.value > 0.0) {
    expected.best_a = position.lo + want.ai;
    expected.best_b = position.b_min + want.bi;
  }
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (int r = 0; r < 3; ++r) {
    const std::size_t span = position.hi - position.b_min + 1;
    const std::size_t b_begin = position.b_min + rng.bounded(span);
    const std::size_t b_end = b_begin + rng.bounded(position.hi - b_begin + 1);
    ranges.emplace_back(b_begin, b_end);
  }
  for (CpuKernelKind kind : kinds) {
    OmegaKernelScratch scratch;
    expect_bitwise(expected,
                   omega::core::omega_kernel_search(m, position, kind, scratch),
                   label + " " + omega::core::cpu_kernel_name(kind));
    for (const auto& [b_begin, b_end] : ranges) {
      check_range_against_oracle(kind, m, position, b_begin, b_end, label);
    }
  }
}

/// Hand-built positions over [0, sites): left regions of 1..41 sites so
/// every vector-tail length runs, including degenerate l == 1 / r == 1
/// windows (pairs == 0).
std::vector<GridPosition> oracle_positions(std::size_t sites) {
  std::vector<GridPosition> positions;
  for (std::size_t c = 1; c + 2 < sites; c += 5) {
    GridPosition position;
    position.valid = true;
    position.lo = c >= 40 ? c - 40 : 0;
    position.c = c;
    position.a_max = c;
    position.b_min = c + 1;
    position.hi = std::min(c + 45, sites - 1);
    positions.push_back(position);
  }
  return positions;
}

TEST(KernelEquivalence, Avx2MatchesOpOrderOracleBitwise) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  omega::util::Xoshiro256 rng(41);
  // Random matrices: coalescent data on a real grid, and hand-built
  // positions that cover the vector tails.
  for (std::uint64_t seed : {3u, 29u}) {
    KernelFixture fx(kernel_dataset(seed));
    for (const auto& position :
         omega::core::build_grid(fx.dataset, kernel_config())) {
      if (!position.valid) continue;
      fx.build(position);
      check_against_oracle(kinds, fx.m, position, rng,
                           "grid seed " + std::to_string(seed));
    }
    for (const auto& position : oracle_positions(fx.dataset.num_sites())) {
      fx.build(position);
      check_against_oracle(kinds, fx.m, position, rng,
                           "tails c " + std::to_string(position.c));
    }
  }
}

TEST(KernelEquivalence, Avx2OracleExactTiesAndZeroCrossSums) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  // A left block of identical sites and a right block of identical sites
  // uncorrelated with it: every cross sum is exactly 0 and many windows tie
  // exactly, so the winner is decided by the first-in-b-major-order rule.
  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<std::int64_t> positions;
  for (int s = 0; s < 40; ++s) {
    rows.push_back(s < 20 ? std::vector<std::uint8_t>{1, 1, 0, 0}
                          : std::vector<std::uint8_t>{1, 0, 1, 0});
    positions.push_back(100 * (s + 1));
  }
  KernelFixture fx(Dataset(std::move(positions), std::move(rows), 10'000));
  omega::util::Xoshiro256 rng(43);
  for (std::size_t lo : {0u, 1u, 5u}) {
    for (std::size_t c : {17u, 19u}) {
      GridPosition position;
      position.valid = true;
      position.lo = lo;
      position.c = c;
      position.a_max = c - 1;
      position.b_min = c + 2;
      position.hi = 39;
      fx.build(position);
      check_against_oracle(kinds, fx.m, position, rng,
                           "ties lo " + std::to_string(lo) + " c " +
                               std::to_string(c));
    }
  }
}

/// LD engine serving r2 values no genotype data produces: uniform in
/// [-0.7, 1] and NaN for one pair, so the omega kernels see negative
/// numerators and denominators and NaN lanes.
class SignedNanLd final : public omega::ld::LdEngine {
 public:
  SignedNanLd(std::size_t sites, std::uint64_t seed, std::size_t nan_row)
      : sites_(sites), seed_(seed), nan_row_(nan_row) {}

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = j0; j < j1; ++j) {
        out[(i - i0) * ld + (j - j0)] = value(i, j);
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "signed-nan"; }
  [[nodiscard]] std::size_t num_sites() const override { return sites_; }

 private:
  [[nodiscard]] float value(std::size_t i, std::size_t j) const {
    if (i == nan_row_ && j + 3 == i) {
      return std::numeric_limits<float>::quiet_NaN();
    }
    omega::util::Xoshiro256 rng(seed_ ^ (i * 1'000'003u + j));
    return static_cast<float>(-0.7 + 1.7 * rng.uniform());
  }

  std::size_t sites_;
  std::uint64_t seed_;
  std::size_t nan_row_;
};

TEST(KernelEquivalence, Avx2OracleNegativeAndNanR2) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  constexpr std::size_t kSites = 110;
  omega::util::Xoshiro256 rng(47);
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    // The NaN pair poisons every M cell at and below its row, so positions
    // before it see only signed values and later ones see NaN lanes too.
    const SignedNanLd engine(kSites, seed, 70);
    for (const auto& position : oracle_positions(kSites)) {
      DpMatrix m;
      m.reset(position.lo);
      m.extend(position.hi + 1, engine);
      check_against_oracle(kinds, m, position, rng,
                           "signed seed " + std::to_string(seed) + " c " +
                               std::to_string(position.c));
    }
  }
}

// Every remainder of the four-row pass (1..9 right borders) against left
// slices narrower than one vector, exactly one vector, and with a tail.
TEST(KernelEquivalence, VectorOracleEveryRowRemainderAndNarrowSlices) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  KernelFixture fx(kernel_dataset(13, 60, 30));
  constexpr std::size_t kCenter = 25;
  for (std::size_t n_left : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 17u}) {
    GridPosition position;
    position.valid = true;
    position.c = kCenter;
    position.lo = kCenter + 1 - n_left;
    position.a_max = kCenter;
    position.b_min = kCenter + 1;
    position.hi = kCenter + 20;
    fx.build(position);
    for (CpuKernelKind kind : kinds) {
      for (std::size_t rows = 1; rows <= 9; ++rows) {
        for (std::size_t b_begin : {kCenter + 1, kCenter + 6}) {
          check_range_against_oracle(kind, fx.m, position, b_begin,
                                     b_begin + rows - 1,
                                     "n_left " + std::to_string(n_left));
        }
      }
    }
  }
}

// Two rows of one pass tie at the maximum, and the later row reaches it at
// a smaller a, one vector before the earlier row does. The earlier row
// (smaller b) must win. Its candidate satisfies the skip test against the
// tied value, num < fl(omega * den), so a body that let the later row's
// record raise the earlier row's threshold would skip that vector and
// report the later row instead.
TEST(KernelEquivalence, VectorTieBetweenRowsOfOnePassGoesToTheEarlierRow) {
  const auto kinds = vector_instances();
  if (kinds.empty()) GTEST_SKIP() << kNoVectorInstance;
  constexpr std::size_t kLeft = 16;
  constexpr std::size_t kRight = 4;
  constexpr std::size_t kLaterA = 1;    // in the first vector at any width
  constexpr std::size_t kEarlierA = 9;  // in a later vector at any width
  ViewTables t;
  t.ls.assign(kLeft, 2.0);
  t.kl.assign(kLeft, 10.0);
  t.l.assign(kLeft, 5.0);
  t.rs.assign(kRight, 3.0);
  t.kr.assign(kRight, 6.0);
  t.r.assign(kRight, 4.0);
  // Every other cell has a large cross sum and scores about 0.066.
  t.rows.assign(kRight, std::vector<double>(kLeft, 100.0));

  // Find a cell value whose candidate scores omega with num < fl(omega·den).
  const OmegaPositionView probe = t.view();
  double cell = 5.5;
  for (;; cell += 1e-3) {
    ASSERT_LT(cell, 6.5) << "no cell value satisfies the skip test";
    t.rows[0][kEarlierA] = cell;
    const Candidate x = fused_candidate(probe, kEarlierA, 0);
    if (x.den > 0.0 && x.num < x.omega * x.den) break;
  }
  t.rows[0][kEarlierA] = 100.0;

  for (std::size_t earlier = 0; earlier + 1 < kRight; ++earlier) {
    ViewTables tie = t;
    tie.rows[earlier][kEarlierA] = cell;
    tie.rows[earlier + 1][kLaterA] = cell;
    const OmegaPositionView view = tie.view();
    const OmegaViewBest want = op_order_oracle(view);
    ASSERT_EQ(want.ai, kEarlierA);
    ASSERT_EQ(want.bi, earlier);
    ASSERT_EQ(fused_candidate(view, kLaterA, earlier + 1).omega, want.value);
    std::vector<double> buf;
    for (CpuKernelKind kind : kinds) {
      expect_bitwise(want,
                     omega::core::omega_kernel_search_view(view, kind, buf),
                     std::string(omega::core::cpu_kernel_name(kind)) +
                         " rows " + std::to_string(earlier) + "/" +
                         std::to_string(earlier + 1));
    }
  }
}

// ------------------------------------------- pruned against exhaustive --

/// The fused bodies this binary and host run: portable and every vector
/// instance.
std::vector<CpuKernelKind> fused_kinds() {
  std::vector<CpuKernelKind> kinds{CpuKernelKind::Portable};
  for (CpuKernelKind kind : vector_instances()) kinds.push_back(kind);
  return kinds;
}

/// Runs `kind` over right borders [b_begin, b_end] of `position` twice
/// through one view: as OmegaKernelScratch builds it (pruning, M being
/// monotone) and with its prune flag cleared (exhaustive). Value and (a, b)
/// must agree bitwise. Returns the candidates the pruned run scored.
std::uint64_t expect_pruned_matches_exhaustive(CpuKernelKind kind,
                                               const DpMatrix& m,
                                               const GridPosition& position,
                                               std::size_t b_begin,
                                               std::size_t b_end,
                                               const std::string& label) {
  OmegaKernelScratch scratch;
  OmegaPositionView view = scratch.view(m, position, b_begin, b_end, kind);
  const std::string where = label + " " +
                            omega::core::cpu_kernel_name(kind) + " [" +
                            std::to_string(b_begin) + ", " +
                            std::to_string(b_end) + "]";
  EXPECT_TRUE(view.prune) << where;
  const OmegaViewBest pruned =
      omega::core::omega_kernel_search_view(view, kind, scratch.omega);
  view.prune = false;
  const OmegaViewBest exhaustive =
      omega::core::omega_kernel_search_view(view, kind, scratch.omega);
  expect_bitwise(exhaustive, pruned, where);
  const std::uint64_t total =
      static_cast<std::uint64_t>(view.n_left) * view.n_right;
  EXPECT_EQ(exhaustive.scored, total) << where;
  EXPECT_LE(pruned.scored, total) << where;
  return pruned.scored;
}

/// Non-negative r2 that decays with distance, hashed from (i, j): a random
/// matrix with LD-like structure, so blocks far from the best can prune.
class DecayingR2Ld final : public omega::ld::LdEngine {
 public:
  DecayingR2Ld(std::size_t sites, std::uint64_t seed)
      : sites_(sites), seed_(seed) {}

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = j0; j < j1; ++j) {
        omega::util::Xoshiro256 rng(seed_ ^ (i * 1'000'003u + j));
        const double gap = i > j ? static_cast<double>(i - j) : 0.0;
        out[(i - i0) * ld + (j - j0)] =
            static_cast<float>(rng.uniform() * std::exp(-gap / 6.0));
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "decaying"; }
  [[nodiscard]] std::size_t num_sites() const override { return sites_; }

 private:
  std::size_t sites_;
  std::uint64_t seed_;
};

// Random non-negative matrices built through DpMatrix: every remainder of
// the four-row pass (1..9 right borders) and the whole range, over left
// slices narrower than one vector block, exactly one, one coarse chunk
// (64 borders) and either side of it, and with a tail.
TEST(KernelEquivalence, PrunedMatchesExhaustiveOnRandomMatrices) {
  constexpr std::size_t kSites = 320;
  constexpr std::size_t kCenter = 200;
  for (std::uint64_t seed : {3u, 4u}) {
    const DecayingR2Ld engine(kSites, seed);
    for (std::size_t n_left :
         {1u, 3u, 4u, 8u, 9u, 63u, 64u, 65u, 130u, 199u}) {
      GridPosition position;
      position.valid = true;
      position.c = kCenter;
      position.lo = kCenter + 1 - n_left;
      position.a_max = kCenter;      // l == 1 windows
      position.b_min = kCenter + 1;  // r == 1 windows
      position.hi = kCenter + 100;
      DpMatrix m;
      m.reset(position.lo);
      m.extend(position.hi + 1, engine);
      ASSERT_TRUE(m.r2_nonnegative());
      const std::string label = "seed " + std::to_string(seed) +
                                " n_left " + std::to_string(n_left);
      for (CpuKernelKind kind : fused_kinds()) {
        for (std::size_t rows = 1; rows <= 9; ++rows) {
          for (std::size_t b_begin : {kCenter + 1, kCenter + 30}) {
            expect_pruned_matches_exhaustive(kind, m, position, b_begin,
                                             b_begin + rows - 1, label);
          }
        }
        expect_pruned_matches_exhaustive(kind, m, position, position.b_min,
                                         position.hi, label);
      }
    }
  }
}

/// The middle grid position of a coalescent dataset with SNP windows, M
/// built by the packed engine the CLI runs.
struct CoalescentPosition {
  CoalescentPosition(std::size_t sites, std::size_t haplotypes, double rho,
                     std::int64_t max_window, std::int64_t min_window,
                     std::uint64_t seed)
      : dataset(omega::sim::make_dataset(
            {.snps = sites,
             .samples = haplotypes,
             .locus_length_bp = static_cast<std::int64_t>(sites) * 100,
             .rho = rho,
             .seed = seed})),
        snps(dataset),
        engine(snps) {
    OmegaConfig config;
    config.grid_size = 9;
    config.window_unit = omega::core::WindowUnit::Snps;
    config.max_window = max_window;
    config.min_window = min_window;
    const auto grid = omega::core::build_grid(dataset, config);
    position = grid[grid.size() / 2];
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
  }

  Dataset dataset;
  omega::ld::SnpMatrix snps;
  omega::ld::PackedLd engine;
  GridPosition position;
  DpMatrix m;
};

// Coalescent data at the Figs. 12/13 shape (3,000 SNPs x 50 haplotypes,
// windows spanning every site) and the stream shape (64 haplotypes, about
// 1,000 sites each side, one breakpoint per ten sites).
TEST(KernelEquivalence, PrunedMatchesExhaustiveOnCoalescentShapes) {
  const CoalescentPosition fig13(3'000, 50, 40.0, 20'000, 4, 1);
  const CoalescentPosition stream(2'400, 64, 240.0, 2'000, 100, 2);
  for (const CoalescentPosition* shape : {&fig13, &stream}) {
    const GridPosition& p = shape->position;
    ASSERT_TRUE(p.valid);
    const std::uint64_t total =
        static_cast<std::uint64_t>(p.a_max - p.lo + 1) * (p.hi - p.b_min + 1);
    for (CpuKernelKind kind : fused_kinds()) {
      const std::uint64_t scored = expect_pruned_matches_exhaustive(
          kind, shape->m, p, p.b_min, p.hi,
          shape == &fig13 ? "fig13" : "stream");
      EXPECT_LT(scored, total) << "no block pruned";
    }
  }
}

// At the fig13-shape position the dispatched body loads the M cells of
// under 5% of the window combinations, and the result still reports every
// combination as evaluated.
TEST(KernelEquivalence, PrunedScoresUnderFivePercentAtFig13Shape) {
  const CoalescentPosition fig13(3'000, 50, 40.0, 20'000, 4, 1);
  const CpuKernelKind kind =
      omega::core::resolve_cpu_kernel(CpuKernelKind::Auto);
  OmegaKernelScratch scratch;
  const OmegaResult got =
      omega::core::omega_kernel_search(fig13.m, fig13.position, kind, scratch);
  const OmegaResult ref =
      omega::core::max_omega_search(fig13.m, fig13.position);
  EXPECT_EQ(got.evaluated, ref.evaluated);
  EXPECT_EQ(ref.scored, ref.evaluated);
  EXPECT_EQ(got.best_a, ref.best_a);
  EXPECT_EQ(got.best_b, ref.best_b);
  EXPECT_LT(static_cast<double>(got.scored),
            0.05 * static_cast<double>(got.evaluated))
      << omega::core::cpu_kernel_name(kind) << ": " << got.scored << " of "
      << got.evaluated;
}

// A scan counts the candidates it scored in kernel.candidates_scored (and
// the metrics document), while the evaluation counters keep counting
// combinations.
TEST(KernelEquivalence, ScanCountsCandidatesScored) {
  const Dataset d = kernel_dataset(37, 150, 30);
  omega::core::ScannerOptions options;
  options.config = kernel_config();
  options.cpu_kernel = CpuKernelKind::Scalar;
  const auto scalar = omega::core::scan(d, options);
  EXPECT_EQ(scalar.profile.kernel.candidates_scored,
            scalar.profile.omega_evaluations);
  options.cpu_kernel = CpuKernelKind::Auto;
  const auto dispatched = omega::core::scan(d, options);
  EXPECT_GT(dispatched.profile.kernel.candidates_scored, 0u);
  EXPECT_LE(dispatched.profile.kernel.candidates_scored,
            dispatched.profile.omega_evaluations);
  EXPECT_EQ(dispatched.profile.omega_evaluations,
            scalar.profile.omega_evaluations);
  const auto doc =
      omega::core::metrics::scan_metrics("scored-test", dispatched.profile);
  EXPECT_EQ(doc.at("kernel").at("candidates_scored").as_uint(),
            dispatched.profile.kernel.candidates_scored);
}

/// A hand-built view with pruning on: flat left and right tables unless a
/// test sets them, rows given cell by cell.
struct PruneTables {
  ViewTables t;
  double delta = 0.0;  // δ; the margin is δ times the last row's first cell

  [[nodiscard]] OmegaPositionView view() {
    OmegaPositionView v = t.view();
    v.prune = true;
    v.cross_margin = delta * t.rows.back()[0];
    return v;
  }
};

/// Runs every fused body over `v` pruned and exhaustive, and expects both
/// to report `want_ai`, `want_bi` with the exhaustive value.
void expect_pruned_winner(OmegaPositionView v, std::size_t want_ai,
                          std::size_t want_bi, const std::string& label) {
  std::vector<double> buf;
  for (CpuKernelKind kind : fused_kinds()) {
    const std::string where =
        label + " " + omega::core::cpu_kernel_name(kind);
    v.prune = false;
    const OmegaViewBest exhaustive =
        omega::core::omega_kernel_search_view(v, kind, buf);
    EXPECT_EQ(exhaustive.ai, want_ai) << where;
    EXPECT_EQ(exhaustive.bi, want_bi) << where;
    v.prune = true;
    expect_bitwise(exhaustive,
                   omega::core::omega_kernel_search_view(v, kind, buf), where);
  }
}

// Exact ties at the maximum that straddle a vector block, a coarse chunk
// (64 borders) and a four-row pass edge: every candidate with M at its
// minimum ties, and the first in b-major order must win whichever blocks
// the pruned bodies skip after recording it.
TEST(KernelEquivalence, PrunedTiesAcrossBlockEdgesGoToTheEarlierCandidate) {
  constexpr std::size_t kLeft = 150;
  constexpr std::size_t kRight = 10;
  for (std::size_t tie_a : {3u, 4u, 7u, 8u, 63u, 64u, 127u, 128u}) {
    for (std::size_t tie_b : {0u, 3u, 4u, 7u}) {
      PruneTables p;
      p.delta = 0x1p-40;
      p.t.ls.assign(kLeft, 1.0);
      p.t.kl.assign(kLeft, 10.0);
      p.t.l.assign(kLeft, 5.0);
      p.t.rs.assign(kRight, 1.0);
      p.t.kr.assign(kRight, 6.0);
      p.t.r.assign(kRight, 4.0);
      // M is monotone: 2.5 on [tie_a, kLeft) x [0, tie_b], growing with b
      // and falling with a elsewhere, so the ties are that rectangle and
      // the winner is its first cell in b-major order, (tie_a, 0).
      p.t.rows.assign(kRight, std::vector<double>(kLeft));
      for (std::size_t b = 0; b < kRight; ++b) {
        for (std::size_t a = 0; a < kLeft; ++a) {
          const bool tie = a >= tie_a && b <= tie_b;
          p.t.rows[b][a] =
              tie ? 2.5
                  : 2.5 + 0.5 * static_cast<double>(b + 1) +
                        0.25 * static_cast<double>(kLeft - a);
        }
      }
      expect_pruned_winner(p.view(), tie_a, 0,
                           "tie a " + std::to_string(tie_a) + " b " +
                               std::to_string(tie_b));
    }
  }
}

// The rounding margin δ. Row 1's candidate (0, 1) has a cross sum 4 ulps
// below the block corner's, cross(1, 1), as rounding in M can leave it
// (LS and M grow by 8 and 4 ulps from a = 1 to a = 0, where exactly they
// would grow alike). Row 0 records t between the bound taken without δ and
// ω(0, 1), so a block test that dropped δ would skip row 1 and report
// (0, 0); with δ it scores row 1 and (0, 1) wins.
TEST(KernelEquivalence, PrunedBlockTestKeepsTheCrossRoundingMargin) {
  const double ulp = 0x1p-40;  // of doubles in [4096, 8192)
  const double x = 1'100'000 * ulp;
  const double eps = OmegaConfig::denominator_offset;
  PruneTables p;
  p.delta = 0x1p-48;  // the δ OmegaKernelScratch::view derives for W = 2
  p.t.ls = {4096.0 + 8 * ulp, 4096.0};
  p.t.kl = {1.0, 1.0};
  p.t.l = {1.0, 1.0};
  p.t.rs = {1.0, 1.0};
  p.t.kr = {1.0, 1.0};
  p.t.r = {1.0, 2.0};
  const double sum0 = 4097.0 + 8 * ulp;
  p.t.rows = {{sum0 + x / 2 - ulp, 4097.0 + x / 2},
              {4097.0 + x + 4 * ulp, 4097.0 + x}};
  // Sanity of the construction: M monotone, and the bound without δ (block
  // [0, 1] x [1, 1], corners cross(1, 1) = x) falls below row 0's best.
  ASSERT_LE(p.t.rows[0][0], p.t.rows[1][0]);
  ASSERT_LE(p.t.rows[0][1], p.t.rows[1][1]);
  ASSERT_EQ(p.t.rows[1][0] - sum0, x - 4 * ulp);
  const OmegaPositionView v = p.view();
  const double t = fused_candidate(v, 0, 0).omega;
  ASSERT_LT(t, fused_candidate(v, 0, 1).omega);
  ASSERT_LT(sum0 * 2.0 * (1.0 + 0x1p-40), t * 2.0 * (eps * 2.0 + x));
  expect_pruned_winner(v, 0, 1, "cross margin");
}

// The block test is strict: a block whose candidate ties t is never
// skipped, since t may come from a later candidate in b-major order. The
// cell value is searched so that the candidate passes the vector skip's tie
// test, num < fl(t·den) with t = ω; a block test in that form, without the
// slack K, would skip the tie.
TEST(KernelEquivalence, PrunedBlockTestNeverSkipsATie) {
  PruneTables p;
  p.t.ls = {2.0};
  p.t.kl = {10.0};
  p.t.l = {5.0};
  p.t.rs = {3.0};
  p.t.kr = {6.0};
  p.t.r = {4.0};
  p.t.rows = {{5.5}};
  bool found = false;
  for (; p.t.rows[0][0] < 6.5 && !found; p.t.rows[0][0] += 1e-3) {
    const Candidate x = fused_candidate(p.view(), 0, 0);
    found = x.den > 0.0 && x.num < x.omega * x.den;
  }
  ASSERT_TRUE(found) << "no cell value passes the tie test";
  p.t.rows[0][0] -= 1e-3;
  const OmegaPositionView v = p.view();
  const double w = fused_candidate(v, 0, 0).omega;
  EXPECT_FALSE(omega::core::detail::block_below(v, 0, 0, 0, 0, w));
  // Strictly above the candidate, the block is skipped.
  EXPECT_TRUE(omega::core::detail::block_below(v, 0, 0, 0, 0, w * 1.001));
}

// All r2 zero: M is monotone and every candidate scores 0, so no threshold
// rises above 0 and nothing is skipped.
TEST(KernelEquivalence, PrunedAllZeroR2SkipsNothing) {
  class ZeroR2Ld final : public omega::ld::LdEngine {
   public:
    void r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1, float* out, std::size_t ld) const override {
      for (std::size_t i = i0; i < i1; ++i) {
        std::fill_n(out + (i - i0) * ld, j1 - j0, 0.0f);
      }
    }
    [[nodiscard]] std::string name() const override { return "zero"; }
    [[nodiscard]] std::size_t num_sites() const override { return 200; }
  } engine;
  GridPosition position;
  position.valid = true;
  position.lo = 0;
  position.c = 90;
  position.a_max = 90;
  position.b_min = 91;
  position.hi = 199;
  DpMatrix m;
  m.reset(0);
  m.extend(200, engine);
  ASSERT_TRUE(m.r2_nonnegative());
  for (CpuKernelKind kind : fused_kinds()) {
    OmegaKernelScratch scratch;
    const OmegaResult got =
        omega::core::omega_kernel_search(m, position, kind, scratch);
    EXPECT_EQ(got.max_omega, 0.0);
    EXPECT_EQ(got.scored, got.evaluated) << omega::core::cpu_kernel_name(kind);
  }
}

// ------------------------------------------------- DpMatrix sign record --

/// Serves 0.5 everywhere except one value at (row, col).
class OneValueLd final : public omega::ld::LdEngine {
 public:
  OneValueLd(std::size_t row, std::size_t col, float value)
      : row_(row), col_(col), value_(value) {}
  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = j0; j < j1; ++j) {
        out[(i - i0) * ld + (j - j0)] =
            i == row_ && j == col_ ? value_ : 0.5f;
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "one-value"; }
  [[nodiscard]] std::size_t num_sites() const override { return 200; }

 private:
  std::size_t row_, col_;
  float value_;
};

TEST(DpMatrixSign, OneNegativeOrNanR2SetsTheRecordSeriallyAndPooled) {
  omega::par::ThreadPool pool(3);
  for (float bad : {-1e-30f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    for (omega::par::ThreadPool* p : {static_cast<omega::par::ThreadPool*>(
                                          nullptr),
                                      &pool}) {
      const OneValueLd engine(150, 20, bad);
      DpMatrix m;
      m.reset(0);
      m.extend(120, engine, p);
      EXPECT_TRUE(m.r2_nonnegative()) << bad;
      m.extend(200, engine, p);  // 80 new rows: the pool tiles them
      EXPECT_FALSE(m.r2_nonnegative()) << bad;
      m.relocate(50, 100);
      EXPECT_FALSE(m.r2_nonnegative()) << "relocate keeps the record";
      m.reset(0);
      EXPECT_TRUE(m.r2_nonnegative()) << "reset clears the record";
    }
  }
  // A value above the diagonal never enters M, so it is not checked.
  const OneValueLd above(30, 60, -1.0f);
  DpMatrix m;
  m.reset(0);
  m.extend(200, above);
  EXPECT_TRUE(m.r2_nonnegative());
}

TEST(DpMatrixSign, VouchingEnginesAreTrustedAndOthersChecked) {
  const Dataset d = kernel_dataset(9, 60, 20);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PackedLd packed(snps);
  const omega::ld::NaiveLd naive(d);
  const omega::ld::PopcountLd popcount(snps);
  EXPECT_TRUE(packed.r2_nonnegative());
  EXPECT_TRUE(naive.r2_nonnegative());
  EXPECT_FALSE(popcount.r2_nonnegative());
  EXPECT_TRUE(omega::ld::OffsetLd(packed, 0).r2_nonnegative());
  EXPECT_FALSE(omega::ld::OffsetLd(popcount, 0).r2_nonnegative());
  // The unchecked engine's values are non-negative too, so its record
  // stays clear; a signed engine's does not.
  DpMatrix m;
  m.reset(0);
  m.extend(60, popcount);
  EXPECT_TRUE(m.r2_nonnegative());
  const SignedNanLd signed_engine(60, 5, 1'000);
  m.reset(0);
  m.extend(60, signed_engine);
  EXPECT_FALSE(m.r2_nonnegative());
  OmegaKernelScratch scratch;
  GridPosition position;
  position.valid = true;
  position.lo = 0;
  position.c = 30;
  position.a_max = 30;
  position.b_min = 31;
  position.hi = 59;
  EXPECT_FALSE(
      scratch.view(m, position, 31, 59, CpuKernelKind::Portable).prune);
}

TEST(KernelDispatch, ResolveSemantics) {
  using omega::core::resolve_cpu_kernel;
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Scalar), CpuKernelKind::Scalar);
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Portable),
            CpuKernelKind::Portable);
  const CpuKernelKind autod = resolve_cpu_kernel(CpuKernelKind::Auto);
  EXPECT_NE(autod, CpuKernelKind::Auto);
  EXPECT_NE(autod, CpuKernelKind::Scalar);  // scalar is opt-in only
  // Auto takes the widest instance available: avx512, then avx2.
  const auto kinds = vector_instances();
  EXPECT_EQ(autod, kinds.empty() ? CpuKernelKind::Portable : kinds.back());
  for (CpuKernelKind kind : {CpuKernelKind::Avx2, CpuKernelKind::Avx512}) {
    if (omega::core::cpu_kernel_available(kind)) {
      EXPECT_EQ(resolve_cpu_kernel(kind), kind);
    } else {
      EXPECT_THROW((void)resolve_cpu_kernel(kind), std::runtime_error);
    }
  }
  for (CpuKernelKind kind : {CpuKernelKind::Auto, CpuKernelKind::Scalar,
                             CpuKernelKind::Portable}) {
    EXPECT_TRUE(omega::core::cpu_kernel_available(kind));
  }
}

TEST(KernelDispatch, MaskedFeatureSetsFallBackOrThrow) {
  using omega::core::resolve_cpu_kernel;
  using omega::util::CpuFeatures;
  const CpuFeatures all{true, true, true, true};
  // Whether the binary carries the TU of `kind`: only then does forcing it
  // resolve against a feature set that has every ISA.
  const auto builds = [&all](CpuKernelKind kind) {
    try {
      return resolve_cpu_kernel(kind, all) == kind;
    } catch (const std::runtime_error&) {
      return false;
    }
  };
  const bool avx2_tu = builds(CpuKernelKind::Avx2);
  const bool avx512_tu = builds(CpuKernelKind::Avx512);

  // No vector feature: Auto falls back to the portable body and forcing
  // either vector instance throws.
  const CpuFeatures none{};
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Auto, none),
            CpuKernelKind::Portable);
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Scalar, none),
            CpuKernelKind::Scalar);
  EXPECT_THROW((void)resolve_cpu_kernel(CpuKernelKind::Avx2, none),
               std::runtime_error);
  EXPECT_THROW((void)resolve_cpu_kernel(CpuKernelKind::Avx512, none),
               std::runtime_error);

  // AVX2 without FMA runs neither instance.
  const CpuFeatures no_fma{true, false, true, true};
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Auto, no_fma),
            CpuKernelKind::Portable);
  EXPECT_THROW((void)resolve_cpu_kernel(CpuKernelKind::Avx2, no_fma),
               std::runtime_error);
  EXPECT_THROW((void)resolve_cpu_kernel(CpuKernelKind::Avx512, no_fma),
               std::runtime_error);

  // AVX2+FMA without AVX-512F: Auto falls back to avx2, forcing avx512
  // throws.
  const CpuFeatures avx2_fma{true, true, false, false};
  const CpuKernelKind narrower =
      avx2_tu ? CpuKernelKind::Avx2 : CpuKernelKind::Portable;
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Auto, avx2_fma), narrower);
  EXPECT_THROW((void)resolve_cpu_kernel(CpuKernelKind::Avx512, avx2_fma),
               std::runtime_error);

  // Every feature: Auto takes the widest TU the binary carries.
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Auto, all),
            avx512_tu ? CpuKernelKind::Avx512 : narrower);
}

TEST(KernelDispatch, NameRoundTrip) {
  using omega::core::cpu_kernel_from_name;
  using omega::core::cpu_kernel_name;
  for (CpuKernelKind kind :
       {CpuKernelKind::Auto, CpuKernelKind::Scalar, CpuKernelKind::Portable,
        CpuKernelKind::Avx2, CpuKernelKind::Avx512}) {
    EXPECT_EQ(cpu_kernel_from_name(cpu_kernel_name(kind)), kind);
  }
  EXPECT_THROW((void)cpu_kernel_from_name("sse9"), std::invalid_argument);
  EXPECT_THROW((void)cpu_kernel_from_name(""), std::invalid_argument);
}

TEST(DpMatrixExtend, PoolMatchesSerialBitwise) {
  // 100 new rows crosses the pool-tiling threshold; the suffix-scan order is
  // fixed per row, so pool and serial extends must agree bit-for-bit.
  const Dataset d = kernel_dataset(29, 100, 30);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  omega::par::ThreadPool pool(3);

  DpMatrix serial, pooled;
  serial.reset(0);
  serial.extend(100, engine);
  pooled.reset(0);
  pooled.extend(100, engine, &pool);
  ASSERT_EQ(serial.end(), pooled.end());
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(serial.at(i, j), pooled.at(i, j)) << i << "," << j;
    }
  }

  // Incremental growth (the relocate-then-extend scan pattern) agrees too.
  DpMatrix stepped;
  stepped.reset(0);
  stepped.extend(40, engine, &pool);
  stepped.extend(100, engine, &pool);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(serial.at(i, j), stepped.at(i, j)) << i << "," << j;
    }
  }
}

TEST(DpMatrixExtend, NoNewRowsSkipsEngineCall) {
  const Dataset d = kernel_dataset(31, 30, 20);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(30, engine);
  const auto fetches = m.r2_fetches();
  const auto recomputed = m.stats().cells_recomputed;
  m.extend(30, engine);  // same end: no work
  m.extend(12, engine);  // shrink request: no work
  EXPECT_EQ(m.r2_fetches(), fetches);
  EXPECT_EQ(m.stats().cells_recomputed, recomputed);
  EXPECT_EQ(m.end(), 30u);
}

TEST(DpMatrixAt, ErrorMessageCarriesIndicesAndRange) {
  DpMatrix m;
  m.reset(5);
  try {
    (void)m.at(7, 3);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DpMatrix::at(7, 3)"), std::string::npos) << what;
    EXPECT_NE(what.find("[5, 5)"), std::string::npos) << what;
  }
}

TEST(ScanKernelOptions, KernelsProduceEquivalentScansAndMetrics) {
  const Dataset d = kernel_dataset(37, 150, 30);
  omega::core::ScannerOptions scalar_options;
  scalar_options.config = kernel_config();
  scalar_options.cpu_kernel = CpuKernelKind::Scalar;
  const auto scalar = omega::core::scan(d, scalar_options);
  EXPECT_EQ(scalar.profile.kernel.requested, "scalar");
  EXPECT_EQ(scalar.profile.kernel.selected, "scalar");
  EXPECT_GT(scalar.profile.kernel.positions, 0u);
  EXPECT_EQ(scalar.profile.kernel.scalar_evaluations,
            scalar.profile.omega_evaluations);
  EXPECT_EQ(scalar.profile.kernel.portable_evaluations, 0u);
  EXPECT_EQ(scalar.profile.kernel.avx2_evaluations, 0u);
  EXPECT_EQ(scalar.profile.kernel.avx512_evaluations, 0u);

  omega::core::ScannerOptions auto_options = scalar_options;
  auto_options.cpu_kernel = CpuKernelKind::Auto;
  const auto dispatched = omega::core::scan(d, auto_options);
  EXPECT_EQ(dispatched.profile.kernel.requested, "auto");
  EXPECT_NE(dispatched.profile.kernel.selected, "scalar");
  EXPECT_EQ(dispatched.profile.kernel.scalar_evaluations, 0u);
  EXPECT_EQ(dispatched.profile.kernel.portable_evaluations +
                dispatched.profile.kernel.avx2_evaluations +
                dispatched.profile.kernel.avx512_evaluations,
            dispatched.profile.omega_evaluations);

  ASSERT_EQ(scalar.scores.size(), dispatched.scores.size());
  for (std::size_t g = 0; g < scalar.scores.size(); ++g) {
    EXPECT_EQ(scalar.scores[g].valid, dispatched.scores[g].valid);
    if (!scalar.scores[g].valid) continue;
    EXPECT_EQ(scalar.scores[g].best_a, dispatched.scores[g].best_a);
    EXPECT_EQ(scalar.scores[g].best_b, dispatched.scores[g].best_b);
    EXPECT_NEAR(scalar.scores[g].max_omega, dispatched.scores[g].max_omega,
                1e-9 * (1.0 + scalar.scores[g].max_omega));
  }

  // The metrics document carries the kernel block (v4; avx512 since v13).
  const auto doc =
      omega::core::metrics::scan_metrics("kernel-test", dispatched.profile);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& kernel = doc.at("kernel");
  EXPECT_EQ(kernel.at("requested").as_string(), "auto");
  EXPECT_EQ(kernel.at("selected").as_string(),
            dispatched.profile.kernel.selected);
  EXPECT_EQ(kernel.at("avx2_supported").as_bool(),
            omega::core::cpu_kernel_available(CpuKernelKind::Avx2));
  EXPECT_EQ(kernel.at("avx512_supported").as_bool(),
            omega::core::cpu_kernel_available(CpuKernelKind::Avx512));
  EXPECT_EQ(kernel.at("positions").as_uint(),
            dispatched.profile.kernel.positions);
}

// Covers avx512 as well as avx2; skips on hosts that run both.
TEST(ScanKernelOptions, ForcedAvx2ThrowsCleanlyWhenUnavailable) {
  std::vector<CpuKernelKind> unavailable;
  for (CpuKernelKind kind : {CpuKernelKind::Avx2, CpuKernelKind::Avx512}) {
    if (!omega::core::cpu_kernel_available(kind)) unavailable.push_back(kind);
  }
  if (unavailable.empty()) {
    GTEST_SKIP() << "AVX2 and AVX-512 available; the forced paths are "
                    "exercised elsewhere";
  }
  const Dataset d = kernel_dataset(43, 60, 20);
  for (CpuKernelKind kind : unavailable) {
    omega::core::ScannerOptions options;
    options.config = kernel_config();
    options.cpu_kernel = kind;
    EXPECT_THROW((void)omega::core::scan(d, options), std::runtime_error)
        << omega::core::cpu_kernel_name(kind);
  }
}

}  // namespace
