// PackedLd-specific tests: ISA dispatch (scalar vs AVX2 bitwise identity),
// the count->r2 kernels against r2_from_counts_f over every feasible count
// set, narrow and wide rows against PopcountLd, panel-cache behaviour across
// r2_block / DpMatrix extend-relocate-reset patterns and chunk switches,
// backend-name plumbing, and the headline guarantee — whole-scan results are
// bitwise identical across every LdBackendKind, in-memory and streaming.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/dp_matrix.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "io/chunk_reader.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/packed.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "sim/dataset_factory.h"
#include "util/cpu_features.h"
#include "util/prng.h"

namespace {

using omega::core::LdBackendKind;
using omega::core::OmegaConfig;
using omega::core::ScannerOptions;
using omega::core::StreamScanOptions;
using omega::io::Dataset;
using omega::io::DatasetChunkReader;
using omega::ld::PackedBlocking;
using omega::ld::PackedIsa;
using omega::ld::PackedLd;
using omega::ld::PopcountLd;
using omega::ld::SnpMatrix;
namespace packed_detail = omega::ld::packed_detail;

Dataset random_dataset(std::size_t sites, std::size_t samples,
                       std::uint64_t seed, double missing_rate = 0.0) {
  omega::util::Xoshiro256 rng(seed);
  std::vector<std::int64_t> positions(sites);
  std::vector<std::vector<std::uint8_t>> rows(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    positions[s] = static_cast<std::int64_t>(s + 1) * 10;
    rows[s].resize(samples);
    const double p = 0.05 + 0.9 * rng.uniform();
    for (std::size_t h = 0; h < samples; ++h) {
      if (missing_rate > 0.0 && rng.uniform() < missing_rate) {
        rows[s][h] = Dataset::kMissing;
      } else {
        rows[s][h] = rng.uniform() < p ? 1 : 0;
      }
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 static_cast<std::int64_t>(sites + 1) * 10);
}

/// A coalescent dataset with `missing_rate` of the genotypes knocked out —
/// realistic positions for the scan grid plus the fused packed path.
Dataset scan_dataset(std::uint64_t seed, std::size_t sites,
                     double missing_rate = 0.0) {
  Dataset base = omega::sim::make_dataset({.snps = sites,
                                           .samples = 30,
                                           .locus_length_bp = 1'000'000,
                                           .rho = 25.0,
                                           .seed = seed});
  if (missing_rate <= 0.0) return base;
  omega::util::Xoshiro256 rng(seed ^ 0xfeed);
  std::vector<std::int64_t> positions(base.positions());
  std::vector<std::vector<std::uint8_t>> rows(base.num_sites());
  for (std::size_t s = 0; s < base.num_sites(); ++s) {
    rows[s] = base.site(s);
    for (auto& allele : rows[s]) {
      if (rng.uniform() < missing_rate) allele = Dataset::kMissing;
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 base.locus_length_bp());
}

OmegaConfig small_config() {
  OmegaConfig config;
  config.grid_size = 12;
  config.max_window = 200'000;
  config.min_window = 10'000;
  return config;
}

void expect_bitwise_equal(const omega::core::ScanResult& expected,
                          const omega::core::ScanResult& actual) {
  ASSERT_EQ(expected.scores.size(), actual.scores.size());
  for (std::size_t g = 0; g < expected.scores.size(); ++g) {
    const auto& e = expected.scores[g];
    const auto& a = actual.scores[g];
    ASSERT_EQ(e.valid, a.valid) << "grid " << g;
    ASSERT_EQ(e.position_bp, a.position_bp) << "grid " << g;
    if (!e.valid) continue;
    ASSERT_EQ(e.max_omega, a.max_omega) << "grid " << g;
    ASSERT_EQ(e.best_a, a.best_a) << "grid " << g;
    ASSERT_EQ(e.best_b, a.best_b) << "grid " << g;
    ASSERT_EQ(e.evaluated, a.evaluated) << "grid " << g;
  }
}

/// Scans with the reference popcount engine (ScannerOptions::ld_factory).
std::unique_ptr<omega::ld::LdEngine> popcount_factory(const SnpMatrix& snps) {
  return std::make_unique<PopcountLd>(snps);
}

// ------------------------------------------------------------ ISA dispatch --

/// Every vector instance this binary/host can run, narrowest first.
std::vector<PackedIsa> vector_isas() {
  std::vector<PackedIsa> isas;
  for (const PackedIsa isa : {PackedIsa::Avx2, PackedIsa::Avx512}) {
    if (omega::ld::packed_isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Every kernel table this binary/host can run: the scalar bodies always,
/// then each vector instance.
std::vector<const packed_detail::PackedKernels*> runnable_kernels() {
  std::vector<const packed_detail::PackedKernels*> kernels{
      &packed_detail::scalar_kernels()};
  for (const PackedIsa isa : vector_isas()) {
    kernels.push_back(&packed_detail::resolve_kernels(isa));
  }
  return kernels;
}

TEST(PackedIsaDispatch, ScalarMatchesAutoBitwise) {
  for (const double missing : {0.0, 0.15}) {
    const Dataset d = random_dataset(48, 300, 71, missing);
    const SnpMatrix snps(d);
    const PackedLd auto_engine(snps);
    const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
    EXPECT_STREQ(scalar_engine.isa(), "scalar");
    std::vector<float> a(48 * 48), s(48 * 48);
    auto_engine.r2_block(0, 48, 0, 48, a.data(), 48);
    scalar_engine.r2_block(0, 48, 0, 48, s.data(), 48);
    EXPECT_EQ(a, s) << "missing rate " << missing;
  }
}

// Covers avx512 as well as avx2.
TEST(PackedIsaDispatch, ForcedAvx2OrThrows) {
  const Dataset d = random_dataset(20, 500, 73, 0.1);
  const SnpMatrix snps(d);
  const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
  std::vector<float> s(20 * 20);
  scalar_engine.r2_block(0, 20, 0, 20, s.data(), 20);
  for (const PackedIsa isa : {PackedIsa::Avx2, PackedIsa::Avx512}) {
    if (omega::ld::packed_isa_available(isa)) {
      const PackedLd engine(snps, PackedBlocking{}, isa);
      EXPECT_STREQ(engine.isa(), omega::ld::packed_isa_name(isa));
      std::vector<float> a(20 * 20);
      engine.r2_block(0, 20, 0, 20, a.data(), 20);
      EXPECT_EQ(a, s) << engine.isa();
    } else {
      EXPECT_THROW(PackedLd(snps, PackedBlocking{}, isa), std::runtime_error);
    }
  }
}

TEST(PackedIsaDispatch, AutoNameMatchesAvailability) {
  // Auto takes the widest instance available: avx512, then avx2.
  const std::vector<PackedIsa> isas = vector_isas();
  EXPECT_STREQ(omega::ld::packed_isa_name(PackedIsa::Auto),
               isas.empty() ? "scalar"
                            : omega::ld::packed_isa_name(isas.back()));
  EXPECT_STREQ(omega::ld::packed_isa_name(PackedIsa::Scalar), "scalar");
  if (omega::ld::packed_isa_available(PackedIsa::Avx2)) {
    EXPECT_STREQ(omega::ld::packed_isa_name(PackedIsa::Avx2), "avx2");
  }
  if (omega::ld::packed_isa_available(PackedIsa::Avx512)) {
    EXPECT_STREQ(omega::ld::packed_isa_name(PackedIsa::Avx512), "avx512");
  }
}

TEST(PackedIsaDispatch, MaskedFeatureSetsFallBackOrThrow) {
  using omega::util::CpuFeatures;
  using packed_detail::resolve_kernels;
  const CpuFeatures all{true, true, true, true};
  // Whether the binary carries the TU of `isa`: only then does forcing it
  // resolve against a feature set that has every ISA.
  const auto builds = [&all](PackedIsa isa) {
    try {
      (void)resolve_kernels(isa, all);
      return true;
    } catch (const std::runtime_error&) {
      return false;
    }
  };
  const bool avx2_tu = builds(PackedIsa::Avx2);
  const bool avx512_tu = builds(PackedIsa::Avx512);

  // No vector feature: only the scalar bodies resolve.
  const CpuFeatures none{};
  EXPECT_STREQ(resolve_kernels(PackedIsa::Auto, none).isa, "scalar");
  EXPECT_STREQ(resolve_kernels(PackedIsa::Scalar, none).isa, "scalar");
  EXPECT_THROW((void)resolve_kernels(PackedIsa::Avx2, none),
               std::runtime_error);
  EXPECT_THROW((void)resolve_kernels(PackedIsa::Avx512, none),
               std::runtime_error);

  // AVX-512F without VPOPCNTDQ cannot run the AVX-512 instance; Auto falls
  // back to AVX2.
  const CpuFeatures no_vpopcntdq{true, true, true, false};
  EXPECT_STREQ(resolve_kernels(PackedIsa::Auto, no_vpopcntdq).isa,
               avx2_tu ? "avx2" : "scalar");
  EXPECT_THROW((void)resolve_kernels(PackedIsa::Avx512, no_vpopcntdq),
               std::runtime_error);

  // VPOPCNTDQ without AVX-512F is not an AVX-512 host either.
  const CpuFeatures no_avx512f{true, true, false, true};
  EXPECT_THROW((void)resolve_kernels(PackedIsa::Avx512, no_avx512f),
               std::runtime_error);

  // AVX2 alone: Avx2 resolves when the TU is built, Avx512 throws.
  const CpuFeatures avx2_only{true, false, false, false};
  EXPECT_STREQ(resolve_kernels(PackedIsa::Auto, avx2_only).isa,
               avx2_tu ? "avx2" : "scalar");
  if (avx2_tu) {
    EXPECT_STREQ(resolve_kernels(PackedIsa::Avx2, avx2_only).isa, "avx2");
  }
  EXPECT_THROW((void)resolve_kernels(PackedIsa::Avx512, avx2_only),
               std::runtime_error);

  // Every feature: Auto takes the widest TU the binary carries.
  EXPECT_STREQ(resolve_kernels(PackedIsa::Auto, all).isa,
               avx512_tu ? "avx512" : (avx2_tu ? "avx2" : "scalar"));
}

TEST(PackedIsaDispatch, DeepSampleDimensionMatchesScalar) {
  // 4,500 samples are 71 words per row: full vectors plus a 3-word (AVX2)
  // or 7-word (AVX-512) partial vector. 8,200 samples (129 words) run past
  // the AVX2 byte-count fold (124 words). Complete and fused rows, every
  // instance, bitwise against the scalar oracle.
  for (const std::size_t samples : {4500u, 8200u}) {
    for (const double missing : {0.0, 0.05}) {
      const Dataset d = random_dataset(10, samples, 79, missing);
      const SnpMatrix snps(d);
      const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
      std::vector<float> s(10 * 10);
      scalar_engine.r2_block(0, 10, 0, 10, s.data(), 10);
      for (const PackedIsa isa : vector_isas()) {
        const PackedLd engine(snps, PackedBlocking{}, isa);
        std::vector<float> a(10 * 10);
        engine.r2_block(0, 10, 0, 10, a.data(), 10);
        EXPECT_EQ(a, s) << engine.isa() << " samples " << samples
                        << " missing " << missing;
      }
    }
  }
}

// ------------------------------------------------------- count->r2 kernels --

std::uint32_t float_bits(float value) {
  return std::bit_cast<std::uint32_t>(value);
}

/// One cell of Eq. (1) input: every (samples, ni, nj, nij) that integer
/// counting can produce has ni, nj <= samples and
/// max(0, ni + nj - samples) <= nij <= min(ni, nj).
struct CountCell {
  std::int32_t samples, ni, nj, nij;
};

std::vector<CountCell> feasible_cells(std::int32_t samples, std::int32_t ni) {
  std::vector<CountCell> cells;
  for (std::int32_t nj = 0; nj <= samples; ++nj) {
    for (std::int32_t nij = std::max(0, ni + nj - samples);
         nij <= std::min(ni, nj); ++nij) {
      cells.push_back({samples, ni, nj, nij});
    }
  }
  return cells;
}

constexpr std::int32_t kMaxCountSamples = 70;

TEST(PackedCountToR2, SharedNMatchesScalarOverEveryFeasibleCount) {
  for (const auto* kernels : runnable_kernels()) {
    std::uint64_t checked = 0;
    std::size_t row_length = 1;
    for (std::int32_t samples = 0; samples <= kMaxCountSamples; ++samples) {
      for (std::int32_t ni = 0; ni <= samples; ++ni) {
        const std::vector<CountCell> cells = feasible_cells(samples, ni);
        std::vector<std::int32_t> nj(cells.size());
        std::vector<std::uint32_t> nij(cells.size());
        for (std::size_t k = 0; k < cells.size(); ++k) {
          nj[k] = cells[k].nj;
          nij[k] = static_cast<std::uint32_t>(cells[k].nij);
        }
        // Rows of 1..17 cells so every vector tail length runs.
        std::vector<float> out(cells.size(), -1.0f);
        for (std::size_t k = 0; k < cells.size();) {
          const std::size_t len = std::min(row_length, cells.size() - k);
          kernels->r2_shared(samples, ni, nj.data() + k, nij.data() + k, len,
                             out.data() + k);
          k += len;
          row_length = row_length % 17 + 1;
        }
        for (std::size_t k = 0; k < cells.size(); ++k) {
          const auto& cell = cells[k];
          const float expected = omega::ld::r2_from_counts_f(
              {cell.samples, cell.ni, cell.nj, cell.nij});
          ASSERT_EQ(float_bits(out[k]), float_bits(expected))
              << kernels->isa << " samples " << cell.samples << " ni "
              << cell.ni << " nj " << cell.nj << " nij " << cell.nij;
        }
        checked += cells.size();
      }
    }
    EXPECT_GT(checked, 1'000'000u) << kernels->isa;
  }
}

TEST(PackedCountToR2, PairwiseMatchesScalarOverEveryFeasibleCount) {
  // Cells of every sample count 0..70 are interleaved so each vector mixes
  // different n, as the pairwise-complete counts of a missing-data block do.
  std::vector<CountCell> cells;
  for (std::int32_t samples = 0; samples <= kMaxCountSamples; ++samples) {
    for (std::int32_t ni = 0; ni <= samples; ++ni) {
      const std::vector<CountCell> part = feasible_cells(samples, ni);
      cells.insert(cells.end(), part.begin(), part.end());
    }
  }
  omega::util::Xoshiro256 rng(2024);
  for (std::size_t k = cells.size(); k > 1; --k) {
    std::swap(cells[k - 1], cells[rng.bounded(k)]);
  }
  std::vector<std::uint32_t> n(cells.size()), ni(cells.size()),
      nj(cells.size()), nij(cells.size());
  for (std::size_t k = 0; k < cells.size(); ++k) {
    n[k] = static_cast<std::uint32_t>(cells[k].samples);
    ni[k] = static_cast<std::uint32_t>(cells[k].ni);
    nj[k] = static_cast<std::uint32_t>(cells[k].nj);
    nij[k] = static_cast<std::uint32_t>(cells[k].nij);
  }

  for (const auto* kernels : runnable_kernels()) {
    std::vector<float> out(cells.size(), -1.0f);
    std::size_t row_length = 1;
    for (std::size_t k = 0; k < cells.size();) {
      const std::size_t len = std::min(row_length, cells.size() - k);
      kernels->r2_pairwise(nij.data() + k, ni.data() + k, nj.data() + k,
                           n.data() + k, len, out.data() + k);
      k += len;
      row_length = row_length % 17 + 1;
    }
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const auto& cell = cells[k];
      const float expected = omega::ld::r2_from_counts_f(
          {cell.samples, cell.ni, cell.nj, cell.nij});
      ASSERT_EQ(float_bits(out[k]), float_bits(expected))
          << kernels->isa << " samples " << cell.samples << " ni " << cell.ni
          << " nj " << cell.nj << " nij " << cell.nij;
    }
    EXPECT_GT(cells.size(), 1'000'000u);
  }
}

// ------------------------------------------------- narrow and wide rows --

TEST(PackedRowWidths, MatchPopcountBitwiseAtEveryWidth) {
  // 1..257 haplotypes cover one-word rows, rows narrower than one vector
  // (2-7 words) and vector rows with and without a partial word vector; 512,
  // 576 and 1,025 haplotypes (8, 9 and 17 words) do the same at AVX-512
  // width. 101 sites with blocks of 37 x 71 and 101 x 99 cells straddle a
  // 64-site panel boundary, the 32-site B blocks, the 4-column count tile
  // and the 8/16-cell vector steps. Every instance runs with the default
  // blocking, the small blocks, and 3-word depth slices.
  PackedBlocking blocking;
  blocking.sites_per_panel = 64;
  blocking.mc = 24;
  blocking.nc = 32;
  PackedBlocking sliced = blocking;
  sliced.kc_words = 3;
  std::vector<PackedIsa> isas{PackedIsa::Scalar};
  for (const PackedIsa isa : vector_isas()) isas.push_back(isa);
  struct Block {
    std::size_t i0, i1, j0, j1;
  };
  const Block blocks[] = {{17, 54, 30, 101}, {0, 101, 1, 100}};
  for (const std::size_t haplotypes : {1u, 63u, 64u, 65u, 128u, 129u, 192u,
                                       256u, 257u, 512u, 576u, 1025u}) {
    for (const double missing : {0.0, 0.1}) {
      const Dataset d = random_dataset(101, haplotypes, 300 + haplotypes,
                                       missing);
      const SnpMatrix snps(d);
      const PopcountLd popcount(snps);
      std::vector<std::unique_ptr<PackedLd>> engines;
      for (const PackedIsa isa : isas) {
        for (const PackedBlocking& b : {PackedBlocking{}, blocking, sliced}) {
          engines.push_back(std::make_unique<PackedLd>(snps, b, isa));
        }
      }
      for (const Block& b : blocks) {
        const std::size_t m = b.i1 - b.i0;
        const std::size_t n = b.j1 - b.j0;
        const std::size_t ld = n + 3;  // a row stride wider than the block
        std::vector<float> expected(m * ld, -1.0f);
        popcount.r2_block(b.i0, b.i1, b.j0, b.j1, expected.data(), ld);
        for (std::size_t e = 0; e < engines.size(); ++e) {
          std::vector<float> actual(m * ld, -1.0f);
          engines[e]->r2_block(b.i0, b.i1, b.j0, b.j1, actual.data(), ld);
          for (std::size_t k = 0; k < actual.size(); ++k) {
            ASSERT_EQ(float_bits(actual[k]), float_bits(expected[k]))
                << engines[e]->isa() << " blocking " << e % 3
                << " haplotypes " << haplotypes << " missing " << missing
                << " cell " << k / ld << "," << k % ld;
          }
        }
      }
    }
  }
}

TEST(PackedRowWidths, CountKernelsMatchScalarAtTailWidths) {
  // Fused [data | mask] and complete rows at widths that are not multiples
  // of the vector (4 or 8 words), so the partial word vector runs, and past
  // the AVX2 byte-count fold (120 words plus the partial vector). All-ones
  // rows put 8 in every byte count, the most a fold must hold. Counts
  // accumulate into c, so c starts at random values; ldc and the plane
  // stride are wider than the block. 21 columns leave a partial 4-column
  // tile and a one-word tail.
  constexpr std::size_t kM = 3, kN = 21, kLdc = 23, kPlane = kM * kLdc + 5;
  omega::util::Xoshiro256 rng(4242);
  const auto& scalar = packed_detail::scalar_kernels();
  for (const bool ones : {false, true}) {
    for (const std::size_t words : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 12u, 13u, 15u,
                                    17u, 23u, 31u, 33u, 63u, 123u, 124u, 125u,
                                    130u, 257u}) {
      const std::size_t stride = 2 * words;  // fused rows: data, then mask
      std::vector<std::uint64_t> a(kM * stride), b(kN * stride);
      for (auto& w : a) w = ones ? ~std::uint64_t{0} : rng();
      for (auto& w : b) w = ones ? ~std::uint64_t{0} : rng();
      std::vector<std::uint32_t> init(4 * kPlane);
      for (auto& c : init) c = static_cast<std::uint32_t>(rng.bounded(1000));

      std::vector<std::uint32_t> fused_want = init, tile_want = init;
      scalar.tile_fused(a.data(), b.data(), stride, words, words, kM, kN,
                        fused_want.data(), kLdc, kPlane);
      // Complete rows at their real width (stride == words), so one-word
      // rows take the broadcast body.
      scalar.tile(a.data(), b.data(), words, words, kM, kN, tile_want.data(),
                  kLdc);
      for (const auto* kernels : runnable_kernels()) {
        std::vector<std::uint32_t> fused = init, tile = init;
        kernels->tile_fused(a.data(), b.data(), stride, words, words, kM, kN,
                            fused.data(), kLdc, kPlane);
        kernels->tile(a.data(), b.data(), words, words, kM, kN, tile.data(),
                      kLdc);
        EXPECT_EQ(fused, fused_want) << kernels->isa << " fused, " << words
                                     << " words, ones " << ones;
        EXPECT_EQ(tile, tile_want) << kernels->isa << " complete, " << words
                                   << " words, ones " << ones;
      }
    }
  }
}

// -------------------------------------------------------------- panel cache --

TEST(PackedPanelCache, PacksOnceThenHits) {
  const Dataset d = random_dataset(60, 100, 83);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 8;  // 60 sites -> 8 panel blocks
  const PackedLd packed(snps, blocking);
  EXPECT_EQ(packed.panel_packs(), 0u);

  std::vector<float> first(60 * 60), second(60 * 60);
  packed.r2_block(0, 60, 0, 60, first.data(), 60);
  const std::uint64_t packs_after_first = packed.panel_packs();
  EXPECT_GT(packs_after_first, 0u);
  EXPECT_LE(packs_after_first, 8u);  // every block packed at most once
  const std::uint64_t hits_after_first = packed.panel_hits();

  packed.r2_block(0, 60, 0, 60, second.data(), 60);
  EXPECT_EQ(packed.panel_packs(), packs_after_first)
      << "second pass must be all cache hits";
  EXPECT_GT(packed.panel_hits(), hits_after_first);
  EXPECT_EQ(first, second);
}

TEST(PackedPanelCache, OverlappingRangesShareBlocks) {
  const Dataset d = random_dataset(64, 90, 89);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 16;  // blocks [0,16) [16,32) [32,48) [48,64)
  const PackedLd packed(snps, blocking);

  std::vector<float> out(32 * 32);
  packed.r2_block(0, 16, 0, 16, out.data(), 16);
  EXPECT_EQ(packed.panel_packs(), 1u);
  // [8, 24) overlaps block 0 (hit) and block 1 (miss).
  packed.r2_block(8, 24, 8, 24, out.data(), 16);
  EXPECT_EQ(packed.panel_packs(), 2u);
  EXPECT_GT(packed.panel_hits(), 0u);
}

TEST(PackedPanelCache, ExtendRelocateResetReusesPanels) {
  // The DpMatrix access pattern of an overlapping-grid scan: every extend
  // against the same engine after the first position is cache hits, and the
  // DP cells must match a popcount-driven matrix bitwise (double equality).
  const Dataset d = random_dataset(80, 120, 97);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 10;  // 8 blocks
  const PackedLd packed(snps, blocking);
  const PopcountLd popcount(snps);

  omega::core::DpMatrix packed_dp, pop_dp;
  packed_dp.reset(0);
  pop_dp.reset(0);
  packed_dp.extend(30, packed);
  pop_dp.extend(30, popcount);
  packed_dp.relocate(12);
  pop_dp.relocate(12);
  packed_dp.extend(56, packed);
  pop_dp.extend(56, popcount);
  packed_dp.reset(40);
  pop_dp.reset(40);
  packed_dp.extend(80, packed);
  pop_dp.extend(80, popcount);

  ASSERT_EQ(packed_dp.base(), pop_dp.base());
  ASSERT_EQ(packed_dp.end(), pop_dp.end());
  for (std::size_t i = packed_dp.base(); i < packed_dp.end(); ++i) {
    for (std::size_t j = packed_dp.base(); j <= i; ++j) {
      ASSERT_EQ(packed_dp.at(i, j), pop_dp.at(i, j)) << i << "," << j;
    }
  }

  // 80 sites / 10 per block: at most 8 packs no matter how many extends ran.
  EXPECT_LE(packed.panel_packs(), 8u);
  const std::uint64_t packs_settled = packed.panel_packs();
  omega::core::DpMatrix again;
  again.reset(0);
  again.extend(80, packed);
  EXPECT_EQ(packed.panel_packs(), packs_settled)
      << "re-walking the chunk must not repack";
}

TEST(PackedPanelCache, NewEngineStartsCold) {
  // A chunk switch constructs a fresh engine — the cache does not leak
  // across engines (and therefore not across chunks).
  const Dataset d = random_dataset(24, 70, 101);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 8;
  const PackedLd first(snps, blocking);
  std::vector<float> out(24 * 24);
  first.r2_block(0, 24, 0, 24, out.data(), 24);
  EXPECT_EQ(first.panel_packs(), 3u);

  const PackedLd second(snps, blocking);
  EXPECT_EQ(second.panel_packs(), 0u);
  second.r2_block(0, 24, 0, 24, out.data(), 24);
  EXPECT_EQ(second.panel_packs(), 3u);
}

// --------------------------------------------------------- backend plumbing --

TEST(LdBackendNames, RoundTripAndResolve) {
  using omega::core::ld_backend_from_name;
  using omega::core::ld_backend_name;
  using omega::core::resolve_ld_backend;
  for (const auto kind :
       {LdBackendKind::Naive, LdBackendKind::Packed, LdBackendKind::Auto}) {
    EXPECT_EQ(ld_backend_from_name(ld_backend_name(kind)), kind);
  }
  EXPECT_EQ(resolve_ld_backend(LdBackendKind::Auto), LdBackendKind::Packed);
  EXPECT_EQ(resolve_ld_backend(LdBackendKind::Naive), LdBackendKind::Naive);
  EXPECT_THROW((void)ld_backend_from_name("simd9000"), std::invalid_argument);
  // The reference engines are not selectable by name: tests reach them
  // through ScannerOptions::ld_factory.
  EXPECT_THROW((void)ld_backend_from_name("popcount"), std::invalid_argument);
  EXPECT_THROW((void)ld_backend_from_name("gemm"), std::invalid_argument);
}

// ------------------------------------------------------- whole-scan identity --

class PackedScanIdentity : public ::testing::TestWithParam<double> {};

TEST_P(PackedScanIdentity, AllBackendsBitwise) {
  const Dataset d = scan_dataset(7, 150, GetParam());
  ScannerOptions options;
  options.config = small_config();
  options.ld_factory = popcount_factory;
  const auto reference = omega::core::scan(d, options);

  ScannerOptions gemm_options = options;
  gemm_options.ld_factory = [](const SnpMatrix& snps)
      -> std::unique_ptr<omega::ld::LdEngine> {
    return std::make_unique<omega::ld::GemmLd>(snps);
  };
  expect_bitwise_equal(reference, omega::core::scan(d, gemm_options));
  for (const auto kind : {LdBackendKind::Packed, LdBackendKind::Auto}) {
    ScannerOptions other = options;
    other.ld_factory = nullptr;
    other.ld = kind;
    const auto result = omega::core::scan(d, other);
    expect_bitwise_equal(reference, result);
  }

  // Naive computes r2 in double and narrows — agreement to float precision,
  // not bitwise.
  ScannerOptions naive_options = options;
  naive_options.ld_factory = nullptr;
  naive_options.ld = LdBackendKind::Naive;
  const auto naive = omega::core::scan(d, naive_options);
  ASSERT_EQ(naive.scores.size(), reference.scores.size());
  for (std::size_t g = 0; g < reference.scores.size(); ++g) {
    if (!reference.scores[g].valid) continue;
    EXPECT_NEAR(naive.scores[g].max_omega, reference.scores[g].max_omega,
                1e-3 * (1.0 + reference.scores[g].max_omega))
        << "grid " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(MissingRates, PackedScanIdentity,
                         ::testing::Values(0.0, 0.1));

TEST(PackedScanIdentity, StreamingMatchesInMemory) {
  for (const double missing : {0.0, 0.1}) {
    const Dataset d = scan_dataset(11, 180, missing);
    ScannerOptions options;
    options.config = small_config();
    options.ld = LdBackendKind::Packed;
    const auto reference = omega::core::scan(d, options);

    for (const std::size_t chunk_sites : {1000u, 48u}) {
      DatasetChunkReader reader(d);
      StreamScanOptions stream_options;
      stream_options.chunk_sites = chunk_sites;
      const auto streamed =
          omega::core::stream_scan(reader, options, stream_options);
      expect_bitwise_equal(reference, streamed);
    }
  }
}

TEST(PackedScanIdentity, ProfileStampsResolvedEngine) {
  const Dataset d = scan_dataset(13, 120);
  ScannerOptions options;
  options.config = small_config();
  options.ld = LdBackendKind::Auto;
  const auto result = omega::core::scan(d, options);
  EXPECT_EQ(result.profile.ld_backend, "packed");
  EXPECT_EQ(result.profile.ld.requested, "auto");
  EXPECT_EQ(result.profile.ld.engine, "packed");
  EXPECT_EQ(result.profile.ld.isa,
            omega::ld::packed_isa_name(PackedIsa::Auto));

  // Streaming fills the same block.
  DatasetChunkReader reader(d);
  const auto streamed = omega::core::stream_scan(reader, options);
  EXPECT_EQ(streamed.profile.ld.engine, "packed");
  EXPECT_EQ(streamed.profile.ld.requested, "auto");

  // A non-packed engine leaves the packed-only fields empty.
  ScannerOptions pop_options = options;
  pop_options.ld_factory = popcount_factory;
  const auto pop = omega::core::scan(d, pop_options);
  EXPECT_EQ(pop.profile.ld.engine, "popcount");
  EXPECT_EQ(pop.profile.ld.requested, "custom");
  EXPECT_TRUE(pop.profile.ld.isa.empty());
}

}  // namespace
