#include "popgen/diversity.h"

#include <cmath>

#include "util/stats.h"

namespace omega::popgen {
namespace {

/// Per-site contribution to pi: 2 * k * (n - k) / (n * (n - 1)) for k
/// derived among n valid calls.
double site_pi(std::size_t derived, std::size_t valid) {
  if (valid < 2) return 0.0;
  const double n = static_cast<double>(valid);
  const double k = static_cast<double>(derived);
  return 2.0 * k * (n - k) / (n * (n - 1.0));
}

}  // namespace

double nucleotide_diversity(const io::Dataset& dataset) {
  double total = 0.0;
  for (std::size_t s = 0; s < dataset.num_sites(); ++s) {
    total += site_pi(dataset.derived_count(s), dataset.valid_count(s));
  }
  return total;
}

double tajimas_d(const io::Dataset& dataset) {
  const std::size_t n = dataset.num_samples();
  const auto segregating = static_cast<double>(dataset.num_sites());
  if (n < 3 || segregating < 3.0) return 0.0;

  // Tajima (1989) constants.
  const double a1 = util::harmonic(n - 1);
  double a2 = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    a2 += 1.0 / (static_cast<double>(i) * static_cast<double>(i));
  }
  const double nn = static_cast<double>(n);
  const double b1 = (nn + 1.0) / (3.0 * (nn - 1.0));
  const double b2 = 2.0 * (nn * nn + nn + 3.0) / (9.0 * nn * (nn - 1.0));
  const double c1 = b1 - 1.0 / a1;
  const double c2 = b2 - (nn + 2.0) / (a1 * nn) + a2 / (a1 * a1);
  const double e1 = c1 / a1;
  const double e2 = c2 / (a1 * a1 + a2);

  const double difference = nucleotide_diversity(dataset) - segregating / a1;
  const double variance = e1 * segregating + e2 * segregating * (segregating - 1.0);
  if (variance <= 0.0) return 0.0;
  return difference / std::sqrt(variance);
}

std::vector<WindowStats> windowed_stats(const io::Dataset& dataset,
                                        std::int64_t window_bp,
                                        std::int64_t step_bp) {
  std::vector<WindowStats> windows;
  if (window_bp <= 0 || step_bp <= 0) return windows;
  const std::int64_t length = dataset.locus_length_bp();
  for (std::int64_t start = 0; start + window_bp <= length; start += step_bp) {
    const auto slice = dataset.slice_bp(start, start + window_bp);
    WindowStats stats;
    stats.start_bp = start;
    stats.end_bp = start + window_bp;
    stats.segregating_sites = slice.num_sites();
    stats.pi = nucleotide_diversity(slice);
    stats.tajimas_d = tajimas_d(slice);
    windows.push_back(stats);
  }
  return windows;
}

}  // namespace omega::popgen
