// Dataset format converter: reads ms / VCF / FASTA (or simulates) and writes
// ms or VCF — the glue for feeding this library's simulated datasets into
// external tools (PLINK, the reference OmegaPlus) and vice versa.
//
//   $ ./convert_tool --input data.ms --length 1000000 --output data.vcf
//   $ ./convert_tool --simulate-snps 1000 --output sim.ms

#include <cstdio>
#include <stdexcept>

#include "io/fasta.h"
#include "io/ms_format.h"
#include "io/vcf_lite.h"
#include "sim/dataset_factory.h"
#include "util/cli.h"

namespace {

std::string extension_of(const std::string& path) {
  const auto dot = path.find_last_of('.');
  return dot == std::string::npos ? "" : path.substr(dot + 1);
}

omega::io::Dataset load(const omega::util::Cli& cli) {
  const std::string input = cli.get("input", "");
  if (input.empty()) {
    omega::sim::DatasetSpec spec;
    spec.snps = cli.get_size("simulate-snps", 1'000);
    spec.samples = cli.get_size("simulate-samples", 50);
    spec.locus_length_bp = cli.get_int("length", 1'000'000);
    spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    return omega::sim::make_dataset(spec);
  }
  const std::string ext = extension_of(input);
  if (ext == "ms" || ext == "out") {
    omega::io::MsReadOptions options;
    options.locus_length_bp = cli.get_int("length", 1'000'000);
    auto replicates = omega::io::read_ms_file(input, options);
    if (replicates.empty()) throw std::runtime_error("ms: no replicates");
    return std::move(replicates.front());
  }
  if (ext == "vcf") return omega::io::read_vcf_file(input);
  if (ext == "fa" || ext == "fasta") {
    return omega::io::fasta_to_dataset(omega::io::read_fasta_file(input));
  }
  throw std::runtime_error("cannot infer input format from ." + ext);
}

}  // namespace

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("input", "input file (.ms/.vcf/.fasta); omit to simulate")
      .describe("output", "output file (.ms or .vcf) — required")
      .describe("length", "locus length in bp for ms input (default 1e6)")
      .describe("haploid", "vcf output: one column per haplotype")
      .describe("simulate-snps", "simulation: SNP count (default 1000)")
      .describe("simulate-samples", "simulation: haplotypes (default 50)")
      .describe("seed", "simulation seed (default 1)");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("convert_tool — dataset format converter").c_str());
    return 0;
  }
  cli.reject_unknown();

  const std::string output = cli.get("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required (see --help)\n");
    return 2;
  }
  const auto dataset = load(cli);
  std::printf("loaded: %s\n", dataset.shape_string().c_str());

  const std::string ext = extension_of(output);
  if (ext == "ms") {
    omega::io::write_ms_file(output, {dataset});
  } else if (ext == "vcf") {
    omega::io::VcfWriteOptions options;
    options.pair_into_diploids = !cli.get_bool("haploid", false);
    omega::io::write_vcf_file(output, dataset, options);
  } else {
    std::fprintf(stderr, "error: unsupported output format .%s\n", ext.c_str());
    return 2;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
