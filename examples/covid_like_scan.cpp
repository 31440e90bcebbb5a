// Motivated by the paper's introduction: Kang et al. found signatures of a
// selective sweep in the spike gene of SARS-CoV-2. This example builds a
// virus-like scenario — a short genome (30 kb), many sequenced samples, low
// diversity, a sweep planted in the "spike" region — exports it as a FASTA
// alignment (the format such analyses start from), re-imports it through the
// FASTA -> binary-SNP reduction, and scans for the sweep.
//
//   $ ./covid_like_scan [--samples 400] [--seed 19]

#include <cstdio>
#include <sstream>

#include "io/fasta.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_overlay.h"
#include "sweep/detector.h"
#include "util/cli.h"
#include "util/prng.h"
#include "util/table.h"

namespace {

constexpr std::int64_t kGenomeLength = 30'000;       // ~SARS-CoV-2 size
constexpr std::int64_t kSpikeStart = 21'500;          // spike ORF, roughly
constexpr std::int64_t kSpikeEnd = 25'400;
constexpr std::int64_t kSweepPosition = 23'000;       // inside spike

/// Renders the binary SNP dataset as a FASTA alignment: a random reference
/// genome with the derived allele at each SNP column substituted for
/// carriers.
std::string to_fasta(const omega::io::Dataset& dataset,
                     omega::util::Xoshiro256& rng) {
  const char bases[4] = {'A', 'C', 'G', 'T'};
  std::string reference(static_cast<std::size_t>(kGenomeLength), 'A');
  for (auto& base : reference) base = bases[rng.bounded(4)];

  std::ostringstream out;
  for (std::size_t h = 0; h < dataset.num_samples(); ++h) {
    std::string sequence = reference;
    for (std::size_t s = 0; s < dataset.num_sites(); ++s) {
      if (dataset.allele(s, h) == 0) continue;
      const auto column = static_cast<std::size_t>(dataset.position(s) - 1);
      // Derived allele: a fixed transversion of the reference base.
      const char ref_base = reference[column];
      sequence[column] = ref_base == 'T' ? 'G' : 'T';
    }
    out << ">sample_" << h << "\n" << sequence << "\n";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("samples", "number of viral genomes (default 400)")
      .describe("seed", "simulation seed (default 19)");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("covid_like_scan — spike-sweep scenario").c_str());
    return 0;
  }
  cli.reject_unknown();
  const auto samples = cli.get_size("samples", 400);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 19));

  // Low-diversity neutral background across the genome (viruses recombine
  // little; a modest rho keeps some haplotype structure variation).
  const auto neutral = omega::sim::make_dataset({.snps = 450,
                                                 .samples = samples,
                                                 .locus_length_bp = kGenomeLength,
                                                 .rho = 8.0,
                                                 .seed = seed});
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = kSweepPosition;
  sweep.carrier_fraction = 0.96;     // the adaptive lineage has taken over
  sweep.tract_mean_bp = 6'000.0;     // short genome, tight hitchhiking tracts
  sweep.thinning_max = 0.6;
  sweep.thinning_scale_bp = 2'500.0;
  sweep.seed = seed + 1;
  const auto swept = omega::sim::apply_sweep(neutral, sweep);

  // FASTA round trip — the entry format of real viral analyses.
  omega::util::Xoshiro256 rng(seed + 2);
  const std::string fasta_text = to_fasta(swept, rng);
  std::istringstream fasta_in(fasta_text);
  const auto records = omega::io::read_fasta(fasta_in);
  const auto dataset = omega::io::fasta_to_dataset(records);
  std::printf("alignment: %zu genomes x %lld bp -> %s after SNP reduction\n",
              records.size(), static_cast<long long>(kGenomeLength),
              dataset.shape_string().c_str());

  // Genome-wide scan; windows sized for a 30 kb genome.
  omega::sweep::DetectorOptions options;
  options.config.grid_size = 60;
  options.config.max_window = 8'000;
  options.config.min_window = 1'000;
  const auto report = omega::sweep::detect_sweeps(dataset, options, 5);

  omega::util::Table table({"rank", "position", "omega", "in spike ORF?"});
  int rank = 1;
  for (const auto& candidate : report.candidates) {
    const bool in_spike =
        candidate.position_bp >= kSpikeStart && candidate.position_bp <= kSpikeEnd;
    table.add_row({std::to_string(rank++),
                   std::to_string(candidate.position_bp),
                   omega::util::Table::num(candidate.omega, 2),
                   in_spike ? "yes" : "no"});
  }
  table.print();

  const auto& best = report.candidates.front();
  const bool hit = best.position_bp >= kSpikeStart && best.position_bp <= kSpikeEnd;
  std::printf("\ntop signal at %lld bp — %s the spike ORF [%lld, %lld] "
              "(sweep planted at %lld)\n",
              static_cast<long long>(best.position_bp),
              hit ? "inside" : "outside", static_cast<long long>(kSpikeStart),
              static_cast<long long>(kSpikeEnd),
              static_cast<long long>(kSweepPosition));
  return hit ? 0 : 1;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
