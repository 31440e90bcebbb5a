// Tests for the coalescent simulator substrate: tree structure invariants,
// Kingman expectations, SMC' moves preserving the marginal distribution,
// Watterson's segregating-sites expectation, fixed-segsites mode, the sweep
// overlay's LD signature, and the dataset factory.

#include <gtest/gtest.h>

#include <cmath>

#include "io/dataset.h"
#include "ld/r2.h"
#include "sim/coalescent.h"
#include "sim/dataset_factory.h"
#include "sim/demography.h"
#include "sim/sweep_overlay.h"
#include "sim/tree.h"
#include "util/prng.h"
#include "util/stats.h"

namespace {

using omega::sim::Tree;
using omega::util::Xoshiro256;

TEST(Tree, KingmanStructureIsValid) {
  Xoshiro256 rng(1);
  for (int rep = 0; rep < 20; ++rep) {
    const Tree tree = Tree::kingman(2 + rep, rng);
    tree.check_invariants();
    EXPECT_EQ(tree.num_nodes(), 2 * tree.num_leaves() - 1);
  }
}

TEST(Tree, KingmanExpectedTotalLength) {
  // E[total length] = 2 * H_{n-1} in units of 2N generations.
  const std::size_t n = 10;
  Xoshiro256 rng(2);
  omega::util::RunningStats stats;
  for (int rep = 0; rep < 4000; ++rep) {
    stats.add(Tree::kingman(n, rng).total_length());
  }
  const double expected = 2.0 * omega::util::harmonic(n - 1);
  EXPECT_NEAR(stats.mean(), expected, expected * 0.05);
}

TEST(Tree, DescendantLeavesPartitionAtRoot) {
  Xoshiro256 rng(3);
  const Tree tree = Tree::kingman(12, rng);
  std::vector<int> leaves;
  tree.descendant_leaves(tree.root(), leaves);
  EXPECT_EQ(leaves.size(), 12u);
}

TEST(Tree, SmcMovePreservesInvariants) {
  Xoshiro256 rng(4);
  Tree tree = Tree::kingman(20, rng);
  for (int move = 0; move < 200; ++move) {
    tree.smc_prune_recoalesce(rng);
    tree.check_invariants();
  }
}

TEST(Tree, LengthRateMoveChainPreservesKingmanExpectation) {
  // SMC' transitions applied at a rate proportional to the current tree
  // length (how the coalescent walks the locus) leave the Kingman marginal
  // invariant: mean total length stays at 2 * H_{n-1}. Note that applying a
  // *fixed* number of moves would instead converge to the length-biased
  // distribution — that distinction is exactly why the simulator samples
  // breakpoint distances from Exp(rate ~ length).
  const std::size_t n = 8;
  const double expected = 2.0 * omega::util::harmonic(n - 1);
  Xoshiro256 rng(5);
  omega::util::RunningStats stats;
  for (int rep = 0; rep < 400; ++rep) {
    Tree tree = Tree::kingman(n, rng);
    // Advance a fixed "distance" along the sequence; moves arrive with
    // probability proportional to length via exponential distance draws.
    double remaining = 10.0;
    for (;;) {
      const double step = rng.exponential(tree.total_length() / expected);
      if (step > remaining) break;
      remaining -= step;
      tree.smc_prune_recoalesce(rng);
    }
    stats.add(tree.total_length());
  }
  EXPECT_NEAR(stats.mean(), expected, expected * 0.08);
}

TEST(Coalescent, WattersonHoldsUnderRecombination) {
  // The marginal genealogy must stay Kingman along the sequence, so
  // Watterson's E[S] = theta * H_{n-1} has to hold with rho > 0 too.
  omega::sim::CoalescentConfig config;
  config.samples = 12;
  config.theta = 50.0;
  config.rho = 30.0;
  omega::util::RunningStats stats;
  for (std::uint64_t rep = 0; rep < 250; ++rep) {
    config.seed = 1000 + rep;
    stats.add(static_cast<double>(omega::sim::simulate(config).num_sites()));
  }
  const double expected = config.theta * omega::util::harmonic(config.samples - 1);
  EXPECT_NEAR(stats.mean(), expected, expected * 0.08);
}

TEST(Coalescent, WattersonSegsites) {
  // E[S] = theta * H_{n-1}.
  omega::sim::CoalescentConfig config;
  config.samples = 20;
  config.theta = 40.0;
  config.rho = 0.0;
  omega::util::RunningStats stats;
  for (std::uint64_t rep = 0; rep < 300; ++rep) {
    config.seed = rep + 1;
    omega::sim::CoalescentConfig one = config;
    // Keep monomorphic sites: none should exist anyway.
    const auto dataset = omega::sim::simulate(one);
    stats.add(static_cast<double>(dataset.num_sites()));
  }
  const double expected = config.theta * omega::util::harmonic(config.samples - 1);
  EXPECT_NEAR(stats.mean(), expected, expected * 0.08);
}

TEST(Coalescent, AllSitesPolymorphic) {
  omega::sim::CoalescentConfig config;
  config.samples = 12;
  config.theta = 60.0;
  config.seed = 99;
  const auto dataset = omega::sim::simulate(config);
  for (std::size_t s = 0; s < dataset.num_sites(); ++s) {
    const std::size_t derived = dataset.derived_count(s);
    ASSERT_GT(derived, 0u);
    ASSERT_LT(derived, dataset.num_samples());
  }
  dataset.validate();
}

TEST(Coalescent, FixedSegsitesIsExact) {
  omega::sim::CoalescentConfig config;
  config.samples = 15;
  config.fixed_segsites = 250;
  config.rho = 10.0;
  config.seed = 7;
  const auto dataset = omega::sim::simulate(config);
  EXPECT_EQ(dataset.num_sites(), 250u);
}

TEST(Coalescent, DeterministicForSeed) {
  omega::sim::CoalescentConfig config;
  config.samples = 10;
  config.fixed_segsites = 50;
  config.seed = 1234;
  const auto a = omega::sim::simulate(config);
  const auto b = omega::sim::simulate(config);
  ASSERT_EQ(a.num_sites(), b.num_sites());
  for (std::size_t s = 0; s < a.num_sites(); ++s) {
    ASSERT_EQ(a.position(s), b.position(s));
    ASSERT_EQ(a.site(s), b.site(s));
  }
}

TEST(Coalescent, RecombinationReducesLongRangeLd) {
  // Without recombination one genealogy spans the locus: distant SNPs stay
  // correlated. With many breakpoints, distant-pair LD should drop.
  auto mean_distant_r2 = [](double rho, std::uint64_t seed) {
    omega::sim::CoalescentConfig config;
    config.samples = 30;
    config.fixed_segsites = 120;
    config.rho = rho;
    config.seed = seed;
    const auto dataset = omega::sim::simulate(config);
    omega::util::RunningStats stats;
    const std::size_t sites = dataset.num_sites();
    for (std::size_t i = 0; i < sites / 4; ++i) {
      stats.add(omega::ld::r2_naive(dataset, i, sites - 1 - i));
    }
    return stats.mean();
  };
  omega::util::RunningStats no_recomb, heavy_recomb;
  for (std::uint64_t rep = 0; rep < 12; ++rep) {
    no_recomb.add(mean_distant_r2(0.0, 100 + rep));
    heavy_recomb.add(mean_distant_r2(200.0, 100 + rep));
  }
  EXPECT_GT(no_recomb.mean(), heavy_recomb.mean());
}

// ---------------------------------------------------------------------------
// Demography (non-equilibrium scenarios)
// ---------------------------------------------------------------------------

TEST(Demography, SizeLookup) {
  const auto model = omega::sim::Demography(
      {{0.0, 1.0}, {0.5, 0.1}, {1.0, 2.0}});
  EXPECT_DOUBLE_EQ(model.size_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(model.size_at(0.49), 1.0);
  EXPECT_DOUBLE_EQ(model.size_at(0.5), 0.1);
  EXPECT_DOUBLE_EQ(model.size_at(0.99), 0.1);
  EXPECT_DOUBLE_EQ(model.size_at(5.0), 2.0);
}

TEST(Demography, RejectsInvalidEpochs) {
  using omega::sim::Demography;
  using omega::sim::Epoch;
  EXPECT_THROW(Demography(std::vector<Epoch>{}), std::invalid_argument);
  EXPECT_THROW(Demography({{0.1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Demography({{0.0, 1.0}, {0.5, -1.0}}), std::invalid_argument);
  EXPECT_THROW(Demography({{0.0, 1.0}, {0.5, 1.0}, {0.5, 2.0}}),
               std::invalid_argument);
}

TEST(Demography, WaitingTimeMatchesConstantRateWhenEquilibrium) {
  const omega::sim::Demography equilibrium;
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    const double via_model = equilibrium.waiting_time(0.3, 4.0, a);
    const double direct = b.exponential(4.0);
    ASSERT_DOUBLE_EQ(via_model, direct);
  }
}

TEST(Demography, SmallPopulationCoalescesFaster) {
  // A tiny recent epoch compresses the genealogy.
  const auto shrunk = omega::sim::Demography({{0.0, 0.05}});
  Xoshiro256 rng(7);
  omega::util::RunningStats constant, small;
  for (int rep = 0; rep < 500; ++rep) {
    constant.add(Tree::kingman(10, rng).total_length());
    small.add(Tree::kingman(10, rng, shrunk).total_length());
  }
  EXPECT_LT(small.mean(), 0.2 * constant.mean());
}

TEST(Demography, BottleneckReducesDiversity) {
  // Watterson under a bottleneck: fewer segregating sites than equilibrium.
  omega::sim::CoalescentConfig config;
  config.samples = 14;
  config.theta = 40.0;
  config.rho = 10.0;
  omega::util::RunningStats equilibrium, bottleneck;
  for (std::uint64_t rep = 0; rep < 150; ++rep) {
    config.seed = 3'000 + rep;
    config.demography = omega::sim::Demography();
    equilibrium.add(static_cast<double>(omega::sim::simulate(config).num_sites()));
    config.demography = omega::sim::Demography::bottleneck(0.05, 0.4, 0.02);
    bottleneck.add(static_cast<double>(omega::sim::simulate(config).num_sites()));
  }
  EXPECT_LT(bottleneck.mean(), 0.8 * equilibrium.mean());
}

TEST(Demography, ExpansionIncreasesDeepDiversity) {
  // Large ancestral size -> longer deep branches -> more segregating sites.
  omega::sim::CoalescentConfig config;
  config.samples = 12;
  config.theta = 30.0;
  omega::util::RunningStats equilibrium, expansion;
  for (std::uint64_t rep = 0; rep < 150; ++rep) {
    config.seed = 4'000 + rep;
    config.demography = omega::sim::Demography();
    equilibrium.add(static_cast<double>(omega::sim::simulate(config).num_sites()));
    // Ancestral size 4 from backward time 0.5 on.
    config.demography = omega::sim::Demography({{0.0, 1.0}, {0.5, 4.0}});
    expansion.add(static_cast<double>(omega::sim::simulate(config).num_sites()));
  }
  EXPECT_GT(expansion.mean(), 1.3 * equilibrium.mean());
}

TEST(Demography, SmcInvariantsHoldUnderBottleneck) {
  const auto model = omega::sim::Demography::bottleneck(0.1, 0.3, 0.05);
  Xoshiro256 rng(17);
  Tree tree = Tree::kingman(16, rng, model);
  for (int move = 0; move < 150; ++move) {
    tree.smc_prune_recoalesce(rng, model);
    tree.check_invariants();
  }
}

TEST(SweepOverlay, ThinsVariationNearSweep) {
  const auto neutral = omega::sim::make_dataset({.snps = 800,
                                                 .samples = 40,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 30.0,
                                                 .seed = 11});
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = 500'000;
  sweep.thinning_max = 0.9;
  const auto swept = omega::sim::apply_sweep(neutral, sweep);
  ASSERT_LT(swept.num_sites(), neutral.num_sites());

  auto count_near = [&](const omega::io::Dataset& d) {
    return d.slice_bp(450'000, 550'000).num_sites();
  };
  auto count_far = [&](const omega::io::Dataset& d) {
    return d.slice_bp(0, 100'000).num_sites();
  };
  // Retention near the sweep must be lower than far from it.
  const double near_kept = static_cast<double>(count_near(swept)) /
                           std::max<std::size_t>(1, count_near(neutral));
  const double far_kept = static_cast<double>(count_far(swept)) /
                          std::max<std::size_t>(1, count_far(neutral));
  EXPECT_LT(near_kept, far_kept);
}

TEST(SweepOverlay, CreatesKimNielsenLdPattern) {
  const auto neutral = omega::sim::make_dataset({.snps = 600,
                                                 .samples = 50,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 120.0,
                                                 .seed = 21});
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = 500'000;
  sweep.carrier_fraction = 0.9;
  sweep.tract_mean_bp = 200'000.0;
  sweep.thinning_max = 0.3;
  const auto swept = omega::sim::apply_sweep(neutral, sweep);

  // Mean r2 within each flank vs across the sweep site, over nearby pairs.
  omega::util::RunningStats within, across;
  std::vector<std::size_t> left, right;
  for (std::size_t s = 0; s < swept.num_sites(); ++s) {
    const auto pos = swept.position(s);
    if (pos > 350'000 && pos < 500'000) left.push_back(s);
    if (pos > 500'000 && pos < 650'000) right.push_back(s);
  }
  ASSERT_GT(left.size(), 10u);
  ASSERT_GT(right.size(), 10u);
  auto sample_pairs = [&](const std::vector<std::size_t>& a,
                          const std::vector<std::size_t>& b,
                          omega::util::RunningStats& stats) {
    for (std::size_t i = 0; i < a.size(); i += 3) {
      for (std::size_t j = 0; j < b.size(); j += 3) {
        if (a[i] == b[j]) continue;
        stats.add(omega::ld::r2_naive(swept, a[i], b[j]));
      }
    }
  };
  sample_pairs(left, left, within);
  sample_pairs(right, right, within);
  sample_pairs(left, right, across);
  // Signature (c): elevated LD within flanks, depressed across the site.
  EXPECT_GT(within.mean(), 1.5 * across.mean());
}

TEST(DatasetFactory, ProducesRequestedShape) {
  const auto dataset = omega::sim::make_dataset(
      {.snps = 500, .samples = 64, .locus_length_bp = 2'000'000, .rho = 20.0, .seed = 3});
  EXPECT_EQ(dataset.num_sites(), 500u);
  EXPECT_EQ(dataset.num_samples(), 64u);
  dataset.validate();
}

TEST(DatasetFactory, RejectsZeroSnps) {
  EXPECT_THROW(omega::sim::make_dataset({.snps = 0}), std::invalid_argument);
}

}  // namespace
