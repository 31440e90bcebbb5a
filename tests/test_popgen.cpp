// Tests for the population-genetics statistics: hand-computed cases,
// neutral-simulation expectations (E[pi] = E[theta_W] = theta, E[D] ~ 0),
// and the sweep signatures the statistics must expose.

#include <gtest/gtest.h>


#include "popgen/diversity.h"
#include "sim/coalescent.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_overlay.h"
#include "util/stats.h"

namespace {

using omega::io::Dataset;

TEST(Popgen, PiHandComputed) {
  // One site, 1 derived of 4: pi = 2*1*3 / (4*3) = 0.5.
  const Dataset d({10}, {{1, 0, 0, 0}}, 100);
  EXPECT_DOUBLE_EQ(omega::popgen::nucleotide_diversity(d), 0.5);
  // Two such sites: additive.
  const Dataset e({10, 20}, {{1, 0, 0, 0}, {0, 1, 1, 1}}, 100);
  EXPECT_DOUBLE_EQ(omega::popgen::nucleotide_diversity(e), 1.0);
}

TEST(Popgen, NeutralExpectations) {
  // Under neutrality pi averages theta and Tajima's D ~ 0.
  omega::sim::CoalescentConfig config;
  config.samples = 20;
  config.theta = 30.0;
  config.rho = 20.0;
  omega::util::RunningStats pi, tajima;
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    config.seed = 10'000 + rep;
    const auto dataset = omega::sim::simulate(config);
    pi.add(omega::popgen::nucleotide_diversity(dataset));
    tajima.add(omega::popgen::tajimas_d(dataset));
  }
  EXPECT_NEAR(pi.mean(), config.theta, config.theta * 0.12);
  EXPECT_NEAR(tajima.mean(), 0.0, 0.25);
}

TEST(Popgen, TajimaUndefinedCases) {
  const Dataset tiny({10}, {{1, 0}}, 100);
  EXPECT_DOUBLE_EQ(omega::popgen::tajimas_d(tiny), 0.0);
}

TEST(Popgen, SweepShiftsTajimaNegativeNearLocus) {
  // Signature (b): the sweep shifts the SFS toward extreme frequencies,
  // driving Tajima's D negative around the swept locus relative to the
  // genome background. Averaged over replicates.
  omega::util::RunningStats near_sweep, far_away;
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    const auto neutral = omega::sim::make_dataset({.snps = 800,
                                                   .samples = 50,
                                                   .locus_length_bp = 1'000'000,
                                                   .rho = 100.0,
                                                   .seed = 600 + rep});
    omega::sim::SweepConfig sweep;
    sweep.sweep_position_bp = 500'000;
    sweep.carrier_fraction = 0.9;  // incomplete: carriers share the core
    sweep.tract_mean_bp = 150'000.0;
    sweep.thinning_max = 0.3;
    sweep.seed = 700 + rep;
    const auto swept = omega::sim::apply_sweep(neutral, sweep);
    near_sweep.add(omega::popgen::tajimas_d(swept.slice_bp(400'000, 600'000)));
    far_away.add(omega::popgen::tajimas_d(swept.slice_bp(0, 200'000)));
  }
  EXPECT_LT(near_sweep.mean(), far_away.mean());
}

TEST(Popgen, WindowedStatsCoverGenome) {
  const auto dataset = omega::sim::make_dataset({.snps = 400,
                                                 .samples = 30,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 20.0,
                                                 .seed = 800});
  const auto windows = omega::popgen::windowed_stats(dataset, 100'000, 50'000);
  ASSERT_EQ(windows.size(), 19u);  // (1e6 - 1e5)/5e4 + 1
  std::size_t total_sites = 0;
  for (const auto& window : windows) {
    EXPECT_EQ(window.end_bp - window.start_bp, 100'000);
    total_sites += window.segregating_sites;
  }
  // 50% overlap: every interior site is counted about twice.
  EXPECT_GT(total_sites, dataset.num_sites());
  // Degenerate parameters yield no windows.
  EXPECT_TRUE(omega::popgen::windowed_stats(dataset, 0, 1).empty());
}

TEST(Popgen, MissingCallsUseValidCounts) {
  const Dataset d({10}, {{1, 0, omega::io::Dataset::kMissing, 0}}, 100);
  // 1 derived of 3 valid: pi = 2*1*2/(3*2) = 2/3.
  EXPECT_NEAR(omega::popgen::nucleotide_diversity(d), 2.0 / 3.0, 1e-12);
}

}  // namespace
