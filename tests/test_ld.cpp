// Tests for the LD substrate: Eq. (1) arithmetic, bit-packing, and agreement
// of all four engines (naive / popcount / BLIS-style GEMM / bit-packed)
// across shapes that stress the blocking edges. PackedLd-specific behaviour
// (panel cache, ISA dispatch, scan-level identity) lives in
// test_ld_packed.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/packed.h"
#include "ld/r2.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "ld_reference/gemm.h"
#include "sim/dataset_factory.h"
#include "util/prng.h"

namespace {

using omega::io::Dataset;
using omega::ld::PairCounts;

Dataset random_dataset(std::size_t sites, std::size_t samples,
                       std::uint64_t seed) {
  omega::util::Xoshiro256 rng(seed);
  std::vector<std::int64_t> positions(sites);
  std::vector<std::vector<std::uint8_t>> rows(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    positions[s] = static_cast<std::int64_t>(s + 1) * 10;
    rows[s].resize(samples);
    // Random derived frequency per site to cover the spectrum.
    const double p = 0.05 + 0.9 * rng.uniform();
    for (std::size_t h = 0; h < samples; ++h) {
      rows[s][h] = rng.uniform() < p ? 1 : 0;
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 static_cast<std::int64_t>(sites + 1) * 10);
}

Dataset random_missing_dataset(std::size_t sites, std::size_t samples,
                               double missing_rate, std::uint64_t seed);

TEST(R2, HandComputedCase) {
  // 4 samples; SNP i = 1100, SNP j = 1010.
  // pi = pj = 0.5, pij = 0.25 -> r2 = (0.25 - 0.25)^2 / (0.25 * 0.25) = 0.
  PairCounts counts{4, 2, 2, 1};
  EXPECT_DOUBLE_EQ(omega::ld::r2_from_counts(counts), 0.0);

  // Perfect correlation: identical SNPs 1100 and 1100.
  PairCounts perfect{4, 2, 2, 2};
  EXPECT_DOUBLE_EQ(omega::ld::r2_from_counts(perfect), 1.0);

  // Perfect anti-correlation: 1100 vs 0011.
  PairCounts anti{4, 2, 2, 0};
  EXPECT_DOUBLE_EQ(omega::ld::r2_from_counts(anti), 1.0);
}

TEST(R2, MonomorphicIsZero) {
  EXPECT_DOUBLE_EQ(omega::ld::r2_from_counts({4, 0, 2, 0}), 0.0);
  EXPECT_DOUBLE_EQ(omega::ld::r2_from_counts({4, 4, 2, 2}), 0.0);
  EXPECT_EQ(omega::ld::r2_from_counts_f({8, 8, 3, 3}), 0.0f);
}

TEST(R2, RangeAndSymmetryProperty) {
  const Dataset d = random_dataset(40, 37, 5);
  for (std::size_t i = 0; i < d.num_sites(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double value = omega::ld::r2_naive(d, i, j);
      ASSERT_GE(value, 0.0);
      ASSERT_LE(value, 1.0 + 1e-12);
      ASSERT_DOUBLE_EQ(value, omega::ld::r2_naive(d, j, i));
    }
  }
}

TEST(R2, SelfCorrelationIsOne) {
  const Dataset d = random_dataset(10, 25, 6);
  for (std::size_t i = 0; i < d.num_sites(); ++i) {
    EXPECT_NEAR(omega::ld::r2_naive(d, i, i), 1.0, 1e-12);
  }
}

TEST(SnpMatrix, PackingPreservesCounts) {
  const Dataset d = random_dataset(30, 130, 7);  // >2 words per site
  const omega::ld::SnpMatrix snps(d);
  EXPECT_EQ(snps.num_sites(), d.num_sites());
  EXPECT_EQ(snps.num_samples(), d.num_samples());
  EXPECT_EQ(snps.words_per_site(), 3u);
  for (std::size_t s = 0; s < d.num_sites(); ++s) {
    EXPECT_EQ(static_cast<std::size_t>(snps.derived_count(s)),
              d.derived_count(s));
  }
  for (std::size_t s = 0; s < d.num_sites(); ++s) {
    const std::uint64_t* row = snps.row(s);
    for (std::size_t h = 0; h < d.num_samples(); ++h) {
      ASSERT_EQ((row[h / 64] >> (h % 64)) & 1u, d.site(s)[h])
          << "site " << s << " sample " << h;
    }
  }
}

// The eight-bytes-per-step packing against a per-allele loop, at every
// sample count a word tail can end on (1..130) and at the deep-sample 2,000.
TEST(SnpMatrix, PackingMatchesPerAlleleLoop) {
  omega::util::Xoshiro256 rng(41);
  std::vector<std::size_t> sample_counts;
  for (std::size_t n = 1; n <= 130; ++n) sample_counts.push_back(n);
  sample_counts.push_back(2'000);
  for (const bool with_missing : {false, true}) {
    for (const std::size_t samples : sample_counts) {
      constexpr std::size_t kSites = 6;
      std::vector<std::int64_t> positions(kSites);
      std::vector<std::vector<std::uint8_t>> rows(kSites);
      for (std::size_t s = 0; s < kSites; ++s) {
        positions[s] = static_cast<std::int64_t>(s + 1) * 10;
        const double derived_p = rng.uniform();
        const double missing_p = with_missing ? 0.3 * rng.uniform() : 0.0;
        for (std::size_t h = 0; h < samples; ++h) {
          const double u = rng.uniform();
          rows[s].push_back(u < missing_p ? Dataset::kMissing
                            : rng.uniform() < derived_p ? 1
                                                        : 0);
        }
      }
      const Dataset d(positions, rows, 100);
      const omega::ld::SnpMatrix snps(d);
      ASSERT_EQ(snps.words_per_site(), (samples + 63) / 64);
      bool any_missing = false;
      for (std::size_t s = 0; s < kSites; ++s) {
        std::vector<std::uint64_t> data(snps.words_per_site(), 0);
        std::vector<std::uint64_t> mask(snps.words_per_site(), 0);
        std::int32_t derived = 0;
        std::int32_t valid = 0;
        for (std::size_t h = 0; h < samples; ++h) {
          const std::uint8_t allele = rows[s][h];
          if (allele == Dataset::kMissing) {
            any_missing = true;
            continue;
          }
          mask[h / 64] |= 1ull << (h % 64);
          ++valid;
          if (allele == 1) {
            data[h / 64] |= 1ull << (h % 64);
            ++derived;
          }
        }
        for (std::size_t w = 0; w < data.size(); ++w) {
          ASSERT_EQ(snps.row(s)[w], data[w])
              << samples << " samples, site " << s << " word " << w;
          ASSERT_EQ(snps.mask(s)[w], mask[w])
              << samples << " samples, site " << s << " word " << w;
        }
        ASSERT_EQ(snps.derived_count(s), derived) << samples << " samples";
        ASSERT_EQ(snps.valid_count(s), valid) << samples << " samples";
      }
      ASSERT_EQ(snps.has_missing(), any_missing) << samples << " samples";
    }
  }
}

TEST(SnpMatrix, PairCountMatchesDirectCount) {
  const Dataset d = random_dataset(20, 70, 8);
  const omega::ld::SnpMatrix snps(d);
  for (std::size_t i = 0; i < d.num_sites(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      std::int32_t direct = 0;
      for (std::size_t h = 0; h < d.num_samples(); ++h) {
        direct += d.allele(i, h) & d.allele(j, h);
      }
      ASSERT_EQ(snps.pair_count(i, j), direct) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine agreement sweep: (sites, samples) combinations chosen to hit GEMM
// microkernel edges (non-multiples of MR/NR/KC) and multi-word popcounts.
// ---------------------------------------------------------------------------

class EngineAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(EngineAgreement, AllEnginesMatchNaive) {
  const auto [sites, samples] = GetParam();
  const Dataset d = random_dataset(sites, samples, sites * 131 + samples);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::NaiveLd naive(d);
  const omega::ld::PopcountLd popcount(snps);
  const omega::ld::GemmLd gemm(snps);
  const omega::ld::PackedLd packed(snps);

  std::vector<float> expected(sites * sites), pop(sites * sites),
      gem(sites * sites), pck(sites * sites);
  naive.r2_block(0, sites, 0, sites, expected.data(), sites);
  popcount.r2_block(0, sites, 0, sites, pop.data(), sites);
  gemm.r2_block(0, sites, 0, sites, gem.data(), sites);
  packed.r2_block(0, sites, 0, sites, pck.data(), sites);
  for (std::size_t idx = 0; idx < expected.size(); ++idx) {
    // Naive computes in double then narrows; the engines compute in float —
    // agreement to a couple of ulps. Popcount, GEMM, and the packed engine
    // share the exact same float path and must match bitwise.
    ASSERT_NEAR(pop[idx], expected[idx], 2e-6f) << "popcount idx " << idx;
    ASSERT_EQ(gem[idx], pop[idx]) << "gemm idx " << idx;
    ASSERT_EQ(pck[idx], pop[idx]) << "packed idx " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineAgreement,
    ::testing::Values(std::make_tuple(8, 8), std::make_tuple(9, 65),
                      std::make_tuple(17, 33), std::make_tuple(31, 128),
                      std::make_tuple(64, 63), std::make_tuple(70, 200),
                      std::make_tuple(13, 1027)));

TEST(Gemm, RectangularAndOffsetBlocks) {
  const Dataset d = random_dataset(50, 90, 17);
  const omega::ld::SnpMatrix snps(d);
  std::vector<std::int32_t> expected(12 * 20), actual(12 * 20);
  omega::ld::pair_count_block_popcount(snps, 5, 17, 20, 40, expected.data(), 20);
  omega::ld::pair_count_block_gemm(snps, 5, 17, 20, 40, actual.data(), 20);
  EXPECT_EQ(expected, actual);
}

TEST(Gemm, SmallBlockingParametersStillCorrect) {
  const Dataset d = random_dataset(40, 150, 19);
  const omega::ld::SnpMatrix snps(d);
  omega::ld::GemmBlocking blocking;
  blocking.mc = 16;
  blocking.nc = 24;
  blocking.kc = 32;  // force many KC passes and edge tiles
  std::vector<std::int32_t> expected(40 * 40), actual(40 * 40);
  omega::ld::pair_count_block_popcount(snps, 0, 40, 0, 40, expected.data(), 40);
  omega::ld::pair_count_block_gemm(snps, 0, 40, 0, 40, actual.data(), 40,
                                   blocking);
  EXPECT_EQ(expected, actual);
}

TEST(Packed, SmallBlockingParametersStillCorrect) {
  // 150 samples = 3 words per row; kc_words = 1 forces depth (pc) boundaries
  // that straddle the sample word count, sites_per_panel = 3 forces many
  // panel blocks, and mc/nc = 8/8 force edge tiles everywhere.
  const Dataset d = random_dataset(41, 150, 53);
  const omega::ld::SnpMatrix snps(d);
  omega::ld::PackedBlocking blocking;
  blocking.mc = 8;
  blocking.nc = 8;
  blocking.kc_words = 1;
  blocking.sites_per_panel = 3;
  const omega::ld::PopcountLd popcount(snps);
  const omega::ld::PackedLd packed(snps, blocking);
  std::vector<float> expected(41 * 41), actual(41 * 41);
  popcount.r2_block(0, 41, 0, 41, expected.data(), 41);
  packed.r2_block(0, 41, 0, 41, actual.data(), 41);
  EXPECT_EQ(expected, actual);
}

TEST(Packed, SmallBlockingWithMissingData) {
  const Dataset d = random_missing_dataset(37, 200, 0.2, 59);
  const omega::ld::SnpMatrix snps(d);
  omega::ld::PackedBlocking blocking;
  blocking.mc = 8;
  blocking.nc = 8;
  blocking.kc_words = 2;
  blocking.sites_per_panel = 5;
  const omega::ld::PopcountLd popcount(snps);
  const omega::ld::PackedLd packed(snps, blocking);
  std::vector<float> expected(37 * 37), actual(37 * 37);
  popcount.r2_block(0, 37, 0, 37, expected.data(), 37);
  packed.r2_block(0, 37, 0, 37, actual.data(), 37);
  EXPECT_EQ(expected, actual);
}

TEST(Packed, MonomorphicAndDegenerateSites) {
  // All-ancestral, all-derived, singleton, and (n-1)-ton rows: r2 with a
  // monomorphic site is defined as 0 and must not divide by zero anywhere.
  const std::size_t samples = 70;
  std::vector<std::vector<std::uint8_t>> rows;
  rows.push_back(std::vector<std::uint8_t>(samples, 0));  // monomorphic 0
  rows.push_back(std::vector<std::uint8_t>(samples, 1));  // monomorphic 1
  std::vector<std::uint8_t> singleton(samples, 0);
  singleton[3] = 1;
  rows.push_back(singleton);
  std::vector<std::uint8_t> near_fixed(samples, 1);
  near_fixed[samples - 1] = 0;
  rows.push_back(near_fixed);
  Dataset mixed = random_dataset(4, samples, 61);
  for (std::size_t s = 0; s < 4; ++s) rows.push_back(mixed.site(s));
  const std::size_t sites = rows.size();
  std::vector<std::int64_t> positions(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    positions[s] = static_cast<std::int64_t>(s + 1) * 10;
  }
  const Dataset d(std::move(positions), std::move(rows),
                  static_cast<std::int64_t>(sites + 1) * 10);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd popcount(snps);
  const omega::ld::PackedLd packed(snps);
  std::vector<float> expected(sites * sites), actual(sites * sites);
  popcount.r2_block(0, sites, 0, sites, expected.data(), sites);
  packed.r2_block(0, sites, 0, sites, actual.data(), sites);
  EXPECT_EQ(expected, actual);
  // Monomorphic rows correlate with nothing, including themselves.
  for (std::size_t j = 0; j < sites; ++j) {
    EXPECT_EQ(actual[0 * sites + j], 0.0f) << j;
    EXPECT_EQ(actual[1 * sites + j], 0.0f) << j;
  }
}

TEST(Gemm, EmptyBlocksAreNoops) {
  const Dataset d = random_dataset(10, 30, 23);
  const omega::ld::SnpMatrix snps(d);
  std::vector<std::int32_t> out(4, -1);
  omega::ld::pair_count_block_gemm(snps, 3, 3, 0, 4, out.data(), 4);
  EXPECT_EQ(out, (std::vector<std::int32_t>{-1, -1, -1, -1}));
}

TEST(LdEngine, SinglePairConvenience) {
  const Dataset d = random_dataset(12, 44, 29);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      ASSERT_NEAR(engine.r2(i, j), omega::ld::r2_naive(d, i, j), 2e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// Missing data: pairwise-complete counting across all engines
// ---------------------------------------------------------------------------

Dataset random_missing_dataset(std::size_t sites, std::size_t samples,
                               double missing_rate, std::uint64_t seed) {
  Dataset base = random_dataset(sites, samples, seed);
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

TEST(MissingData, HandComputedPairwiseComplete) {
  // SNP i: 1 0 . 1 ; SNP j: 1 1 0 .
  // Pairwise-complete samples: {0, 1} -> n=2, ni=1, nj=2 (monomorphic j) -> 0.
  const Dataset d({10, 20},
                  {{1, 0, Dataset::kMissing, 1}, {1, 1, 0, Dataset::kMissing}},
                  100);
  EXPECT_DOUBLE_EQ(omega::ld::r2_naive(d, 0, 1), 0.0);

  // SNP i: 1 0 1 0 . ; SNP j: 1 0 1 0 1 -> complete set {0..3}, identical.
  const Dataset e({10, 20},
                  {{1, 0, 1, 0, Dataset::kMissing}, {1, 0, 1, 0, 1}}, 100);
  EXPECT_DOUBLE_EQ(omega::ld::r2_naive(e, 0, 1), 1.0);
}

TEST(MissingData, SnpMatrixCompleteCounts) {
  const Dataset d = random_missing_dataset(25, 90, 0.15, 41);
  const omega::ld::SnpMatrix snps(d);
  EXPECT_TRUE(snps.has_missing());
  for (std::size_t i = 0; i < d.num_sites(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(snps.valid_count(i)), d.valid_count(i));
    EXPECT_EQ(static_cast<std::size_t>(snps.derived_count(i)),
              d.derived_count(i));
    for (std::size_t j = 0; j <= i; ++j) {
      const auto counts = snps.pair_counts_complete(i, j);
      omega::ld::PairCounts direct{0, 0, 0, 0};
      for (std::size_t h = 0; h < d.num_samples(); ++h) {
        const auto a = d.allele(i, h);
        const auto b = d.allele(j, h);
        if (a == Dataset::kMissing || b == Dataset::kMissing) continue;
        ++direct.samples;
        direct.ni += a;
        direct.nj += b;
        direct.nij += static_cast<std::int32_t>(a & b);
      }
      ASSERT_EQ(counts.samples, direct.samples) << i << "," << j;
      ASSERT_EQ(counts.ni, direct.ni) << i << "," << j;
      ASSERT_EQ(counts.nj, direct.nj) << i << "," << j;
      ASSERT_EQ(counts.nij, direct.nij) << i << "," << j;
    }
  }
}

class MissingEngineAgreement : public ::testing::TestWithParam<double> {};

TEST_P(MissingEngineAgreement, AllEnginesAgree) {
  const Dataset d = random_missing_dataset(40, 130, GetParam(), 47);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::NaiveLd naive(d);
  const omega::ld::PopcountLd popcount(snps);
  const omega::ld::GemmLd gemm(snps);
  const omega::ld::PackedLd packed(snps);
  std::vector<float> expected(40 * 40), pop(40 * 40), gem(40 * 40),
      pck(40 * 40);
  naive.r2_block(0, 40, 0, 40, expected.data(), 40);
  popcount.r2_block(0, 40, 0, 40, pop.data(), 40);
  gemm.r2_block(0, 40, 0, 40, gem.data(), 40);
  packed.r2_block(0, 40, 0, 40, pck.data(), 40);
  for (std::size_t idx = 0; idx < expected.size(); ++idx) {
    ASSERT_NEAR(pop[idx], expected[idx], 2e-6f) << idx;
    ASSERT_EQ(gem[idx], pop[idx]) << idx;
    ASSERT_EQ(pck[idx], pop[idx]) << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, MissingEngineAgreement,
                         ::testing::Values(0.0, 0.02, 0.1, 0.35, 0.8));

TEST(LdEngine, CoalescentDataAgreement) {
  // Real simulator output (skewed frequency spectrum) rather than uniform
  // random sites.
  const auto d = omega::sim::make_dataset(
      {.snps = 60, .samples = 100, .locus_length_bp = 100'000, .rho = 5.0, .seed = 31});
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd popcount(snps);
  const omega::ld::GemmLd gemm(snps);
  const omega::ld::PackedLd packed(snps);
  std::vector<float> a(60 * 60), b(60 * 60), c(60 * 60);
  popcount.r2_block(0, 60, 0, 60, a.data(), 60);
  gemm.r2_block(0, 60, 0, 60, b.data(), 60);
  packed.r2_block(0, 60, 0, 60, c.data(), 60);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

}  // namespace
