// Unit tests for omega::util: PRNG statistical behaviour and determinism,
// streaming statistics, CLI parsing, and bit helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.h"
#include "util/cli.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using omega::util::Xoshiro256;

TEST(Prng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  omega::util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Prng, BoundedStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Prng, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  std::array<int, 8> histogram{};
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) {
    ++histogram[rng.bounded(8)];
  }
  for (const int count : histogram) {
    EXPECT_NEAR(count, draws / 8, draws / 8 * 0.1);
  }
}

TEST(Prng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(13);
  omega::util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Prng, NormalMomentsMatch) {
  Xoshiro256 rng(17);
  omega::util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

class PrngPoisson : public ::testing::TestWithParam<double> {};

TEST_P(PrngPoisson, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(mean * 1000) + 3);
  omega::util::RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(static_cast<double>(rng.poisson(mean)));
  }
  EXPECT_NEAR(stats.mean(), mean, std::max(0.05, mean * 0.05));
  EXPECT_NEAR(stats.variance(), mean, std::max(0.2, mean * 0.1));
}

INSTANTIATE_TEST_SUITE_P(Means, PrngPoisson,
                         ::testing::Values(0.5, 2.0, 10.0, 29.0, 80.0, 400.0));

TEST(Prng, ForkProducesIndependentStream) {
  Xoshiro256 rng(21);
  Xoshiro256 forked = rng.fork(1);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 100; ++i) {
    values.insert(rng());
    values.insert(forked());
  }
  EXPECT_GT(values.size(), 195u);  // near-zero collisions
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> values{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(omega::util::percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(omega::util::percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(omega::util::percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(omega::util::percentile(values, 0.25), 2.0);
}

TEST(Stats, PercentileOfEmptyThrows) {
  EXPECT_THROW(omega::util::percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, HarmonicNumbers) {
  EXPECT_DOUBLE_EQ(omega::util::harmonic(1), 1.0);
  EXPECT_NEAR(omega::util::harmonic(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(omega::util::pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(omega::util::pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, RunningStatsWelford) {
  omega::util::RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha", "3",  "--beta=0.5",
                        "--flag", "--name", "x"};
  omega::util::Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("name", ""), "x");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
}

TEST(Cli, RejectsPositionalAndUnknown) {
  const char* bad[] = {"prog", "stray"};
  EXPECT_THROW(omega::util::Cli(2, bad), std::invalid_argument);

  const char* unknown[] = {"prog", "--typo", "1"};
  omega::util::Cli cli(3, unknown);
  cli.describe("real", "a real option");
  EXPECT_THROW(cli.reject_unknown(), std::invalid_argument);
}

TEST(Cli, HelpFlagDetected) {
  const char* argv[] = {"prog", "--help"};
  omega::util::Cli cli(2, argv);
  EXPECT_TRUE(cli.wants_help());
}

TEST(Table, FormatsAlignedRows) {
  omega::util::Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Bits, WordsAndMasks) {
  EXPECT_EQ(omega::util::words_for_bits(0), 0u);
  EXPECT_EQ(omega::util::words_for_bits(1), 1u);
  EXPECT_EQ(omega::util::words_for_bits(64), 1u);
  EXPECT_EQ(omega::util::words_for_bits(65), 2u);
  EXPECT_EQ(omega::util::tail_mask(64), ~0ull);
  EXPECT_EQ(omega::util::tail_mask(1), 1ull);
  EXPECT_EQ(omega::util::tail_mask(3), 7ull);
}

TEST(Bits, AndPopcount) {
  const std::uint64_t a[2] = {0b1010, ~0ull};
  const std::uint64_t b[2] = {0b0110, 0x0F0Full};
  EXPECT_EQ(omega::util::and_popcount(a, b, 2), 1 + 8);
  EXPECT_EQ(omega::util::popcount_range(a, 2), 2 + 64);
}

}  // namespace
