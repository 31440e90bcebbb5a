#pragma once
// Classical population-genetic summary statistics. The selective sweep
// theory (paper §II) lists three signatures around a beneficial mutation:
//   a) reduced genetic variation            -> pi
//   b) SFS shift toward low/high-frequency  -> Tajima's D
//      derived variants
//   c) the LD pattern                        -> the omega statistic (core/)
// This module provides (a) and (b) so examples and analyses can show all
// three signatures side by side, and so the simulator substrate can be
// validated against their neutral expectations (E[pi] = theta, E[Tajima's
// D] ~ 0).

#include <cstdint>
#include <vector>

#include "io/dataset.h"

namespace omega::popgen {

/// Nucleotide diversity: mean pairwise difference count over all sample
/// pairs, summed across sites (an estimator of theta under neutrality).
double nucleotide_diversity(const io::Dataset& dataset);

/// Tajima's D with the standard variance normalization (Tajima 1989).
/// Returns 0 when undefined (fewer than 3 segregating sites or samples).
double tajimas_d(const io::Dataset& dataset);

/// Per-window statistics along the genome (windows of `window_bp`, stepped
/// by `step_bp`), for landscape plots next to the omega landscape.
struct WindowStats {
  std::int64_t start_bp = 0;
  std::int64_t end_bp = 0;
  std::size_t segregating_sites = 0;
  double pi = 0.0;
  double tajimas_d = 0.0;
};

std::vector<WindowStats> windowed_stats(const io::Dataset& dataset,
                                        std::int64_t window_bp,
                                        std::int64_t step_bp);

}  // namespace omega::popgen
