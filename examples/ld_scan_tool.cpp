// quickLD-style LD analysis tool: computes D / D' / r2 between two genomic
// intervals (possibly distant — the scan is tiled, memory stays O(tile)) and
// prints summary statistics plus the top high-LD pairs in a PLINK-like
// layout. Demonstrates the LD substrate standing alone, independent of the
// omega machinery.
//
//   $ ./ld_scan_tool --snps 1500 --from-a 0 --to-a 300000 \
//                    --from-b 600000 --to-b 1000000 --threshold 0.2

#include <cstdio>

#include "ld/ld_stats.h"
#include "ld/snp_matrix.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("snps", "SNPs to simulate (default 1500)")
      .describe("samples", "haplotypes to simulate (default 100)")
      .describe("from-a", "region A start, bp (default 0)")
      .describe("to-a", "region A end, bp (default 300000)")
      .describe("from-b", "region B start, bp (default 600000)")
      .describe("to-b", "region B end, bp (default 1000000)")
      .describe("threshold", "high-LD r2 threshold (default 0.2)")
      .describe("maf", "minor-allele-frequency filter (default 0.05)")
      .describe("top", "top pairs to print (default 8)")
      .describe("seed", "simulation seed (default 9)");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("ld_scan_tool — region-by-region LD scan").c_str());
    return 0;
  }
  cli.reject_unknown();

  const auto dataset = omega::sim::make_dataset(
      {.snps = cli.get_size("snps", 1'500),
       .samples = cli.get_size("samples", 100),
       .locus_length_bp = 1'000'000,
       .rho = 40.0,
       .seed = static_cast<std::uint64_t>(cli.get_int("seed", 9))});
  const omega::ld::SnpMatrix snps(dataset);
  std::printf("dataset: %s\n", dataset.shape_string().c_str());

  // Resolve bp intervals to SNP index ranges.
  auto index_of = [&](std::int64_t bp) {
    std::size_t index = 0;
    while (index < dataset.num_sites() && dataset.position(index) < bp) ++index;
    return index;
  };
  const std::size_t a_begin = index_of(cli.get_int("from-a", 0));
  const std::size_t a_end = index_of(cli.get_int("to-a", 300'000));
  const std::size_t b_begin = index_of(cli.get_int("from-b", 600'000));
  const std::size_t b_end = index_of(cli.get_int("to-b", 1'000'000));

  omega::ld::LdScanOptions options;
  options.high_ld_threshold = cli.get_double("threshold", 0.2);
  options.min_maf = cli.get_double("maf", 0.05);
  options.top_pairs = cli.get_size("top", 8);

  omega::par::ThreadPool pool;
  omega::util::Timer timer;
  const auto result = omega::ld::ld_region_scan_parallel(
      pool, snps, a_begin, a_end, b_begin, b_end, options);
  const double seconds = timer.seconds();

  std::printf("regions: A = SNPs [%zu, %zu), B = SNPs [%zu, %zu)\n", a_begin,
              a_end, b_begin, b_end);
  std::printf("pairs:   %llu evaluated (%llu MAF-skipped) in %.3fs "
              "(%.1f Mpairs/s)\n",
              static_cast<unsigned long long>(result.pairs_evaluated),
              static_cast<unsigned long long>(result.pairs_skipped_maf),
              seconds,
              static_cast<double>(result.pairs_evaluated) / seconds / 1e6);
  std::printf("r2:      mean %.4f, max %.4f; %llu pairs >= %.2f\n\n",
              result.mean_r2, result.max_r2,
              static_cast<unsigned long long>(result.high_ld_pairs),
              options.high_ld_threshold);

  omega::util::Table table({"BP_A", "BP_B", "D", "D'", "R2"});
  for (const auto& pair : result.top) {
    table.add_row({std::to_string(dataset.position(pair.site_a)),
                   std::to_string(dataset.position(pair.site_b)),
                   omega::util::Table::num(pair.stats.d, 4),
                   omega::util::Table::num(pair.stats.d_prime, 3),
                   omega::util::Table::num(pair.stats.r2, 4)});
  }
  table.print();
  return 0;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
