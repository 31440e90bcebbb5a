// Integration tests for the scan driver: whole-scan agreement with the
// brute-force oracle, LD-engine interchangeability, relocation on/off
// equivalence, multithreaded == sequential, and profile accounting.

#include <gtest/gtest.h>

#include "core/reference.h"
#include "core/scanner.h"
#include "core/workload.h"
#include "ld_reference/engines.h"
#include "sim/dataset_factory.h"

namespace {

using omega::core::OmegaConfig;
using omega::core::ScannerOptions;

omega::io::Dataset scan_dataset(std::uint64_t seed, std::size_t sites = 150) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = 30,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 25.0,
                                   .seed = seed});
}

OmegaConfig small_config() {
  OmegaConfig config;
  config.grid_size = 12;
  config.max_window = 200'000;
  config.min_window = 10'000;
  return config;
}

TEST(Scanner, MatchesBruteForcePerPosition) {
  const auto d = scan_dataset(1, 80);
  ScannerOptions options;
  options.config = small_config();
  const auto result = omega::core::scan(d, options);
  const auto grid = omega::core::build_grid(d, options.config);
  ASSERT_EQ(result.scores.size(), grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    if (!grid[g].valid) {
      EXPECT_FALSE(result.scores[g].valid);
      continue;
    }
    const auto brute = omega::core::brute_force_position(d, grid[g]);
    ASSERT_TRUE(result.scores[g].valid);
    EXPECT_EQ(result.scores[g].evaluated, brute.evaluated);
    EXPECT_NEAR(result.scores[g].max_omega, brute.max_omega,
                1e-3 * (1.0 + brute.max_omega))
        << "grid " << g;
  }
}

TEST(Scanner, LdEnginesProduceSameScan) {
  const auto d = scan_dataset(2);
  ScannerOptions popcount_options;
  popcount_options.config = small_config();
  popcount_options.ld_factory = [](const omega::ld::SnpMatrix& snps)
      -> std::unique_ptr<omega::ld::LdEngine> {
    return std::make_unique<omega::ld::PopcountLd>(snps);
  };
  ScannerOptions gemm_options = popcount_options;
  gemm_options.ld_factory = [](const omega::ld::SnpMatrix& snps)
      -> std::unique_ptr<omega::ld::LdEngine> {
    return std::make_unique<omega::ld::GemmLd>(snps);
  };
  ScannerOptions packed_options;  // the shipped default engine
  packed_options.config = small_config();

  const auto a = omega::core::scan(d, popcount_options);
  ASSERT_EQ(a.profile.ld_backend, "popcount");
  for (const ScannerOptions& options : {gemm_options, packed_options}) {
    const auto b = omega::core::scan(d, options);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t g = 0; g < a.scores.size(); ++g) {
      // Identical float r2 inputs -> identical sums -> identical scores.
      ASSERT_DOUBLE_EQ(a.scores[g].max_omega, b.scores[g].max_omega);
      ASSERT_EQ(a.scores[g].best_a, b.scores[g].best_a);
      ASSERT_EQ(a.scores[g].best_b, b.scores[g].best_b);
    }
  }
}

TEST(Scanner, ReuseToggleDoesNotChangeResults) {
  const auto d = scan_dataset(3);
  ScannerOptions with_reuse;
  with_reuse.config = small_config();
  with_reuse.reuse = true;
  ScannerOptions without_reuse = with_reuse;
  without_reuse.reuse = false;

  const auto a = omega::core::scan(d, with_reuse);
  const auto b = omega::core::scan(d, without_reuse);
  for (std::size_t g = 0; g < a.scores.size(); ++g) {
    ASSERT_DOUBLE_EQ(a.scores[g].max_omega, b.scores[g].max_omega);
  }
  // Reuse must fetch strictly fewer r2 values on overlapping grids.
  EXPECT_LT(a.profile.r2_fetched, b.profile.r2_fetched);
}

class ScannerThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScannerThreads, MultithreadedEqualsSequential) {
  const auto d = scan_dataset(4);
  ScannerOptions sequential;
  sequential.config = small_config();
  ScannerOptions threaded = sequential;
  threaded.threads = GetParam();

  const auto a = omega::core::scan(d, sequential);
  const auto b = omega::core::scan(d, threaded);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t g = 0; g < a.scores.size(); ++g) {
    ASSERT_DOUBLE_EQ(a.scores[g].max_omega, b.scores[g].max_omega);
    ASSERT_EQ(a.scores[g].best_a, b.scores[g].best_a);
    ASSERT_EQ(a.scores[g].best_b, b.scores[g].best_b);
  }
  EXPECT_EQ(a.profile.omega_evaluations, b.profile.omega_evaluations);
}

INSTANTIATE_TEST_SUITE_P(Threads, ScannerThreads,
                         ::testing::Values(2, 3, 4, 8));

TEST(Scanner, ProfileCountersAreConsistent) {
  const auto d = scan_dataset(5);
  ScannerOptions options;
  options.config = small_config();
  const auto result = omega::core::scan(d, options);
  const auto workload = omega::core::analyze_workload(d, options.config);
  EXPECT_EQ(result.profile.omega_evaluations, workload.total_combinations);
  EXPECT_EQ(result.profile.r2_fetched, workload.total_r2_with_reuse);
  EXPECT_GE(result.profile.total_seconds,
            0.0);  // stopwatch sanity
  EXPECT_GT(result.profile.omega_throughput(), 0.0);
  EXPECT_GT(result.profile.ld_throughput(), 0.0);
}

TEST(Scanner, BestAndTopHelpers) {
  const auto d = scan_dataset(6);
  ScannerOptions options;
  options.config = small_config();
  const auto result = omega::core::scan(d, options);
  const auto& best = result.best();
  const auto top3 = result.top(3);
  ASSERT_LE(top3.size(), 3u);
  EXPECT_DOUBLE_EQ(top3.front().max_omega, best.max_omega);
  for (std::size_t i = 1; i < top3.size(); ++i) {
    EXPECT_GE(top3[i - 1].max_omega, top3[i].max_omega);
  }
}

// best() and top() must never surface a position the grid builder marked
// invalid, no matter how high its (meaningless) score field is; best() throws
// only when no valid score exists at all.
TEST(Scanner, BestAndTopSkipInvalidScores) {
  omega::core::ScanResult result;
  omega::core::PositionScore invalid_high;
  invalid_high.valid = false;
  invalid_high.max_omega = 1e9;  // garbage from an unevaluated slot
  omega::core::PositionScore valid_low;
  valid_low.valid = true;
  valid_low.max_omega = 1.5;
  valid_low.position_bp = 42;
  omega::core::PositionScore valid_mid;
  valid_mid.valid = true;
  valid_mid.max_omega = 2.5;
  valid_mid.position_bp = 84;
  result.scores = {invalid_high, valid_low, valid_mid, invalid_high};

  EXPECT_DOUBLE_EQ(result.best().max_omega, 2.5);
  EXPECT_EQ(result.best().position_bp, 84);
  const auto top = result.top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].max_omega, 2.5);
  EXPECT_DOUBLE_EQ(top[1].max_omega, 1.5);

  result.scores = {invalid_high, invalid_high};
  EXPECT_THROW((void)result.best(), std::logic_error);
  EXPECT_TRUE(result.top(5).empty());

  result.scores.clear();
  EXPECT_THROW((void)result.best(), std::logic_error);
}

TEST(Scanner, EmptyGridConfigThrows) {
  const auto d = scan_dataset(7, 50);
  ScannerOptions options;
  options.config.grid_size = 0;
  EXPECT_THROW(omega::core::scan(d, options), std::invalid_argument);
}

TEST(Scanner, NaiveEngineAgreesOnTinyScan) {
  const auto d = scan_dataset(8, 40);
  ScannerOptions fast;
  fast.config = small_config();
  fast.config.grid_size = 4;
  ScannerOptions naive = fast;
  naive.ld = omega::core::LdBackendKind::Naive;
  const auto a = omega::core::scan(d, fast);
  const auto b = omega::core::scan(d, naive);
  for (std::size_t g = 0; g < a.scores.size(); ++g) {
    ASSERT_NEAR(a.scores[g].max_omega, b.scores[g].max_omega,
                1e-3 * (1.0 + a.scores[g].max_omega));
  }
}

}  // namespace
