// Full sweep-detection workflow on data with a *planted* selective sweep:
// simulate neutral variation, impose the hitchhiking signature at a chosen
// locus, round-trip the dataset through the ms interchange format (as a real
// pipeline would), scan, and visualize the omega landscape — the planted
// sweep should dominate it.
//
//   $ ./sweep_scan [--sweep-pos 650000] [--seed 11]

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/scanner.h"
#include "io/ms_format.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_overlay.h"
#include "util/cli.h"

namespace {

/// Coarse ASCII rendering of the omega landscape.
void draw_landscape(const omega::core::ScanResult& result,
                    std::int64_t truth_bp) {
  double max_omega = 0.0;
  for (const auto& score : result.scores) {
    max_omega = std::max(max_omega, score.max_omega);
  }
  const int height = 12;
  std::printf("\nomega landscape (grid positions left to right; * = planted "
              "sweep column):\n");
  for (int row = height; row >= 1; --row) {
    const double threshold =
        max_omega * static_cast<double>(row - 1) / height;
    std::string line;
    for (const auto& score : result.scores) {
      line += score.max_omega > threshold ? '#' : ' ';
    }
    std::printf("%8.1f |%s|\n", max_omega * row / height, line.c_str());
  }
  std::string axis;
  for (const auto& score : result.scores) {
    const bool near_truth = std::abs(score.position_bp - truth_bp) <
                            (result.scores.size() > 1
                                 ? (result.scores[1].position_bp -
                                    result.scores[0].position_bp)
                                 : 1);
    axis += near_truth ? '*' : '-';
  }
  std::printf("         +%s+\n", axis.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("sweep-pos", "planted sweep position in bp (default 650000)")
      .describe("seed", "simulation seed (default 11)");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("sweep_scan — planted-sweep workflow").c_str());
    return 0;
  }
  cli.reject_unknown();
  const std::int64_t sweep_pos = cli.get_int("sweep-pos", 650'000);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));

  // Neutral background with recombination.
  const auto neutral = omega::sim::make_dataset({.snps = 900,
                                                 .samples = 60,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 150.0,
                                                 .seed = seed});
  // Hitchhiking overlay: reduced variation + one-sided LD around sweep_pos.
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = sweep_pos;
  sweep.carrier_fraction = 0.96;
  sweep.tract_mean_bp = 220'000.0;
  sweep.seed = seed + 1;
  const auto swept = omega::sim::apply_sweep(neutral, sweep);
  std::printf("neutral: %s\nswept:   %s (variation thinned near %lld)\n",
              neutral.shape_string().c_str(), swept.shape_string().c_str(),
              static_cast<long long>(sweep_pos));

  // Round-trip through the ms interchange format.
  std::ostringstream buffer;
  omega::io::write_ms(buffer, {swept});
  std::istringstream replay(buffer.str());
  omega::io::MsReadOptions ms_options;
  ms_options.locus_length_bp = swept.locus_length_bp();
  const auto loaded = omega::io::read_ms(replay, ms_options).front();

  // Scan.
  omega::core::ScannerOptions options;
  options.config.grid_size = 64;
  options.config.max_window = 250'000;
  options.config.min_window = 20'000;
  options.config.max_snps_per_side = 200;
  const auto result = omega::core::scan(loaded, options);

  draw_landscape(result, sweep_pos);

  const auto& best = result.best();
  std::printf("\nmax omega %.2f at position %lld (planted sweep at %lld, "
              "off by %lld bp)\n",
              best.max_omega, static_cast<long long>(best.position_bp),
              static_cast<long long>(sweep_pos),
              static_cast<long long>(std::abs(best.position_bp - sweep_pos)));
  std::printf("scan: %llu omega evaluations in %.3fs (%.1f Mw/s), "
              "%llu r2 values\n",
              static_cast<unsigned long long>(result.profile.omega_evaluations),
              result.profile.total_seconds,
              result.profile.omega_throughput() / 1e6,
              static_cast<unsigned long long>(result.profile.r2_fetched));
  return 0;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
