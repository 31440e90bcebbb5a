#pragma once
// Neutral coalescent simulator replacing Hudson's `ms` in the paper's
// experimental setup (see DESIGN.md, substitution table).
//
// Model:
//  * without recombination (rho == 0): exact Kingman coalescent; mutations
//    are dropped on branches at rate theta/2 per unit branch length, so
//    E[segregating sites] = theta * H_{n-1}, matching ms's -t convention;
//  * with recombination (rho > 0): the locus is cut at Poisson(rho)
//    breakpoints; the marginal genealogy changes at each breakpoint through
//    an SMC'-style prune-and-recoalesce move (McVean & Cardin 2005
//    approximation of the ancestral recombination graph). LD consequently
//    decays with distance, and SNP density varies along the locus — the two
//    properties the paper's workloads depend on.
//  * fixed_segsites mimics ms's -s flag: exactly S sites are placed,
//    distributed over segments proportional to segment length x tree length.

#include <cstdint>
#include <optional>

#include "io/dataset.h"
#include "sim/demography.h"
#include "util/prng.h"

namespace omega::sim {

struct CoalescentConfig {
  std::size_t samples = 50;
  /// Population-scaled mutation rate for the whole locus (ms -t).
  double theta = 100.0;
  /// Expected number of recombination breakpoints along the locus.
  double rho = 0.0;
  std::int64_t locus_length_bp = 1'000'000;
  /// ms -s: condition on exactly this many segregating sites.
  std::optional<std::size_t> fixed_segsites;
  /// Population-size history (default: equilibrium).
  Demography demography;
  std::uint64_t seed = 1;
};

/// Simulates one replicate.
io::Dataset simulate(const CoalescentConfig& config);

}  // namespace omega::sim
