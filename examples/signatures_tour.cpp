// Tour of the three selective-sweep signatures (paper §II) on one dataset:
//
//   (a) reduced genetic variation       — SNP density / pi per window
//   (b) SFS shift                       — Tajima's D per window
//   (c) the LD pattern                  — the omega statistic (what the
//                                         paper accelerates)
//
// A sweep is planted mid-locus; the example prints the three landscapes side
// by side so the complementary nature of the signatures — and why omega is
// the direct LD-based indicator — is visible in one table.
//
//   $ ./signatures_tour [--seed 5]

#include <algorithm>
#include <cstdio>

#include "core/scanner.h"
#include "popgen/diversity.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_overlay.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

std::string bar(double value, double maximum, int width = 18) {
  if (maximum <= 0.0) return "";
  const int fill = std::clamp(
      static_cast<int>(value / maximum * width + 0.5), 0, width);
  return std::string(static_cast<std::size_t>(fill), '#');
}

}  // namespace

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("seed", "simulation seed (default 5)");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("signatures_tour — the three sweep signatures").c_str());
    return 0;
  }
  cli.reject_unknown();
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));

  constexpr std::int64_t kSweep = 500'000;
  const auto neutral = omega::sim::make_dataset({.snps = 1'000,
                                                 .samples = 60,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 120.0,
                                                 .seed = seed});
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = kSweep;
  sweep.carrier_fraction = 0.93;
  sweep.tract_mean_bp = 180'000.0;
  sweep.thinning_max = 0.6;
  sweep.seed = seed + 1;
  const auto dataset = omega::sim::apply_sweep(neutral, sweep);
  std::printf("dataset: %s; sweep planted at %lld bp\n\n",
              dataset.shape_string().c_str(), static_cast<long long>(kSweep));

  // (a) + (b): windowed diversity statistics.
  const auto windows = omega::popgen::windowed_stats(dataset, 100'000, 100'000);

  // (c): the omega landscape at the window midpoints.
  omega::core::ScannerOptions options;
  options.config.grid_size = windows.size();
  options.config.max_window = 200'000;
  options.config.min_window = 20'000;
  options.config.max_snps_per_side = 150;
  const auto scan = omega::core::scan(dataset, options);

  double max_pi = 0.0, max_omega = 0.0;
  for (const auto& window : windows) max_pi = std::max(max_pi, window.pi);
  for (const auto& score : scan.scores) {
    max_omega = std::max(max_omega, score.max_omega);
  }

  omega::util::Table table({"window (kb)", "S", "pi (a)", "Tajima D (b)",
                            "omega (c)", "omega bar"});
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto& window = windows[w];
    const double omega_value =
        w < scan.scores.size() ? scan.scores[w].max_omega : 0.0;
    const bool is_sweep_window =
        window.start_bp <= kSweep && kSweep < window.end_bp;
    table.add_row(
        {std::to_string(window.start_bp / 1'000) + "-" +
             std::to_string(window.end_bp / 1'000) + (is_sweep_window ? " *" : ""),
         std::to_string(window.segregating_sites),
         omega::util::Table::num(window.pi, 1),
         omega::util::Table::num(window.tajimas_d, 2),
         omega::util::Table::num(omega_value, 1),
         bar(omega_value, max_omega)});
  }
  table.print();
  std::printf("\n(* = window containing the planted sweep)\n");
  std::printf("expected: the sweep window shows fewer segregating sites and "
              "lower pi (a), more negative Tajima's D (b), and the omega "
              "peak (c).\n");

  // Machine-checkable summary for CI-style use.
  const auto& best = scan.best();
  const bool omega_hits =
      std::abs(best.position_bp - kSweep) <= 150'000;
  std::printf("\nomega argmax at %lld bp -> %s the sweep neighbourhood\n",
              static_cast<long long>(best.position_bp),
              omega_hits ? "inside" : "outside");
  return omega_hits ? 0 : 1;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
