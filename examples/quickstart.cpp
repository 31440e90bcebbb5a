// Quickstart: simulate a small dataset, scan it for selective sweeps with
// the default CPU backend, and print the top candidate regions.
//
//   $ ./quickstart [--snps 800] [--samples 50] [--grid 50] [--seed 1]

#include <cstdio>

#include "sim/dataset_factory.h"
#include "sweep/detector.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("snps", "number of SNPs to simulate (default 800)")
      .describe("samples", "number of haplotypes (default 50)")
      .describe("grid", "number of omega positions (default 50)")
      .describe("seed", "simulation seed (default 1)");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("quickstart — minimal libomega usage").c_str());
    return 0;
  }
  cli.reject_unknown();

  // 1. Get data: here a neutral coalescent simulation; real analyses load
  //    an ms / VCF / FASTA file through omega::io instead.
  omega::sim::DatasetSpec spec;
  spec.snps = cli.get_size("snps", 800);
  spec.samples = cli.get_size("samples", 50);
  spec.locus_length_bp = 1'000'000;
  spec.rho = 60.0;
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto dataset = omega::sim::make_dataset(spec);
  std::printf("dataset: %s\n", dataset.shape_string().c_str());

  // 2. Configure the scan (OmegaPlus-style parameters).
  omega::sweep::DetectorOptions options;
  options.config.grid_size = cli.get_size("grid", 50);
  options.config.max_window = 200'000;  // bp
  options.config.min_window = 10'000;   // bp

  // 3. Scan and report.
  const auto report = omega::sweep::detect_sweeps(dataset, options, 5);
  std::printf("backend: %s — %llu omega evaluations, %.3fs\n\n",
              report.backend_name.c_str(),
              static_cast<unsigned long long>(report.profile.omega_evaluations),
              report.profile.total_seconds);

  omega::util::Table table({"rank", "position (bp)", "max omega", "best window"});
  int rank = 1;
  for (const auto& candidate : report.candidates) {
    table.add_row({std::to_string(rank++),
                   std::to_string(candidate.position_bp),
                   omega::util::Table::num(candidate.omega, 3),
                   std::to_string(candidate.window_start_bp) + ".." +
                       std::to_string(candidate.window_end_bp)});
  }
  table.print();
  return 0;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
