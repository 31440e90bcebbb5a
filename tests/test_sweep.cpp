// End-to-end detection tests: the library must localize a planted selective
// sweep near its true position on every backend, and the ms round-trip must
// not perturb the scan.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "io/ms_format.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_overlay.h"
#include "sweep/detector.h"

namespace {

omega::io::Dataset swept_dataset(std::uint64_t seed) {
  const auto neutral = omega::sim::make_dataset({.snps = 700,
                                                 .samples = 50,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 150.0,
                                                 .seed = seed});
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = 600'000;
  sweep.carrier_fraction = 0.97;
  sweep.tract_mean_bp = 250'000.0;
  sweep.thinning_max = 0.4;
  sweep.seed = seed + 1;
  return omega::sim::apply_sweep(neutral, sweep);
}

omega::sweep::DetectorOptions detector_options(omega::sweep::Backend backend) {
  omega::sweep::DetectorOptions options;
  options.backend = backend;
  options.config.grid_size = 40;
  options.config.max_window = 200'000;
  options.config.min_window = 10'000;
  options.config.max_snps_per_side = 120;
  return options;
}

class DetectsPlantedSweep
    : public ::testing::TestWithParam<omega::sweep::Backend> {};

TEST_P(DetectsPlantedSweep, TopCandidateNearTruth) {
  const auto dataset = swept_dataset(101);
  const auto report = omega::sweep::detect_sweeps(
      dataset, detector_options(GetParam()), 5);
  ASSERT_FALSE(report.candidates.empty());
  const auto& best = report.candidates.front();
  // The winning grid position must sit in the sweep's neighbourhood.
  EXPECT_NEAR(static_cast<double>(best.position_bp), 600'000.0, 150'000.0)
      << report.backend_name;
  EXPECT_LE(best.window_start_bp, best.position_bp);
  EXPECT_GE(best.window_end_bp, best.position_bp);
  EXPECT_GT(best.omega, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, DetectsPlantedSweep,
                         ::testing::Values(omega::sweep::Backend::Cpu,
                                           omega::sweep::Backend::CpuThreaded,
                                           omega::sweep::Backend::GpuSim,
                                           omega::sweep::Backend::FpgaSim));

TEST(Detector, BackendsRankTheSameWinner) {
  const auto dataset = swept_dataset(202);
  const auto cpu = omega::sweep::detect_sweeps(
      dataset, detector_options(omega::sweep::Backend::Cpu), 3);
  const auto gpu = omega::sweep::detect_sweeps(
      dataset, detector_options(omega::sweep::Backend::GpuSim), 3);
  const auto fpga = omega::sweep::detect_sweeps(
      dataset, detector_options(omega::sweep::Backend::FpgaSim), 3);
  ASSERT_FALSE(cpu.candidates.empty());
  EXPECT_EQ(cpu.candidates.front().position_bp,
            gpu.candidates.front().position_bp);
  EXPECT_EQ(cpu.candidates.front().position_bp,
            fpga.candidates.front().position_bp);
  EXPECT_NEAR(cpu.candidates.front().omega, gpu.candidates.front().omega,
              1e-4 * (1.0 + cpu.candidates.front().omega));
}

TEST(Detector, SweptLocusScoresAboveItsNeutralCounterpart) {
  // The sweep overlay must raise omega *at the sweep locus* relative to the
  // same neutral data. Averaged over replicates: single-replicate global
  // maxima are dominated by the heavy right tail of neutral omega.
  const auto options = detector_options(omega::sweep::Backend::Cpu);
  auto best_near_sweep = [&](const omega::io::Dataset& dataset) {
    const auto report = omega::sweep::detect_sweeps(dataset, options, 100);
    double best = 0.0;
    for (const auto& candidate : report.candidates) {
      if (std::abs(candidate.position_bp - 600'000) <= 150'000) {
        best = std::max(best, candidate.omega);
      }
    }
    return best;
  };
  double swept_total = 0.0, neutral_total = 0.0;
  for (std::uint64_t seed : {301ull, 302ull, 303ull}) {
    const auto neutral = omega::sim::make_dataset({.snps = 700,
                                                   .samples = 50,
                                                   .locus_length_bp = 1'000'000,
                                                   .rho = 150.0,
                                                   .seed = seed});
    neutral_total += best_near_sweep(neutral);
    swept_total += best_near_sweep(swept_dataset(seed));
  }
  EXPECT_GT(swept_total, neutral_total);
}

TEST(Detector, MsRoundTripPreservesScan) {
  const auto dataset = swept_dataset(505);
  std::ostringstream out;
  omega::io::write_ms(out, {dataset});
  std::istringstream in(out.str());
  omega::io::MsReadOptions ms_options;
  ms_options.locus_length_bp = dataset.locus_length_bp();
  const auto replicates = omega::io::read_ms(in, ms_options);
  ASSERT_EQ(replicates.size(), 1u);

  const auto options = detector_options(omega::sweep::Backend::Cpu);
  const auto direct = omega::sweep::detect_sweeps(dataset, options, 1);
  const auto round_trip = omega::sweep::detect_sweeps(replicates[0], options, 1);
  ASSERT_FALSE(direct.candidates.empty());
  ASSERT_FALSE(round_trip.candidates.empty());
  // Positions survive up to 1 bp rounding; scores to float-level noise.
  EXPECT_NEAR(static_cast<double>(direct.candidates.front().position_bp),
              static_cast<double>(round_trip.candidates.front().position_bp),
              2000.0);
  EXPECT_NEAR(direct.candidates.front().omega,
              round_trip.candidates.front().omega,
              0.05 * (1.0 + direct.candidates.front().omega));
}

TEST(Detector, ProfileIsPopulated) {
  const auto dataset = swept_dataset(606);
  const auto report = omega::sweep::detect_sweeps(
      dataset, detector_options(omega::sweep::Backend::Cpu), 3);
  EXPECT_GT(report.profile.omega_evaluations, 0u);
  EXPECT_GT(report.profile.r2_fetched, 0u);
  EXPECT_GT(report.profile.total_seconds, 0.0);
  EXPECT_EQ(report.backend_name, "cpu");
}

}  // namespace
