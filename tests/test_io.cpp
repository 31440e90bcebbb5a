// Tests for omega::io: Dataset invariants, ms format round-trips and error
// handling, FASTA SNP extraction, and the VCF-lite importer.

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "io/dataset.h"
#include "io/fasta.h"
#include "io/ms_format.h"
#include "io/vcf_lite.h"

namespace {

using omega::io::Dataset;

Dataset tiny_dataset() {
  return Dataset({100, 200, 300},
                 {{0, 1, 1, 0}, {1, 1, 0, 0}, {0, 0, 0, 1}}, 1000);
}

TEST(Dataset, ShapeAccessors) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.num_sites(), 3u);
  EXPECT_EQ(d.num_samples(), 4u);
  EXPECT_EQ(d.locus_length_bp(), 1000);
  EXPECT_EQ(d.position(1), 200);
  EXPECT_EQ(d.allele(0, 1), 1);
  EXPECT_EQ(d.derived_count(0), 2u);
  EXPECT_NE(d.shape_string().find("4 samples"), std::string::npos);
}

TEST(Dataset, ValidateRejectsBadInput) {
  EXPECT_THROW(Dataset({100, 100}, {{0, 1}, {1, 0}}, 1000),
               std::invalid_argument);  // non-increasing positions
  EXPECT_THROW(Dataset({100, 200}, {{0, 1}, {1}}, 1000),
               std::invalid_argument);  // ragged
  EXPECT_THROW(Dataset({100}, {{0, 3}}, 1000),
               std::invalid_argument);  // invalid allele code (2 = missing ok)
  EXPECT_THROW(Dataset({100, 2000}, {{0, 1}, {1, 0}}, 1000),
               std::invalid_argument);  // position beyond locus
}

TEST(Dataset, RemoveMonomorphic) {
  Dataset d({10, 20, 30, 40},
            {{0, 0, 0}, {0, 1, 0}, {1, 1, 1}, {1, 0, 1}}, 100);
  EXPECT_EQ(d.remove_monomorphic(), 2u);
  EXPECT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(d.position(0), 20);
  EXPECT_EQ(d.position(1), 40);
}

TEST(Dataset, MinorAlleleFilter) {
  // MAFs over 5 samples: 1/5 = 0.2, 2/5 = 0.4 (three derived -> minor is
  // ancestral), 0.2 with a missing call (1 of 4 valid -> 0.25).
  Dataset d({10, 20, 30},
            {{1, 0, 0, 0, 0}, {1, 1, 1, 0, 0}, {1, 0, 0, 0, Dataset::kMissing}},
            100);
  Dataset strict = d;
  EXPECT_EQ(strict.filter_minor_allele(0.3), 2u);
  ASSERT_EQ(strict.num_sites(), 1u);
  EXPECT_EQ(strict.position(0), 20);

  Dataset lenient = d;
  EXPECT_EQ(lenient.filter_minor_allele(0.05), 0u);
  EXPECT_THROW(lenient.filter_minor_allele(0.6), std::invalid_argument);
}

TEST(Dataset, SliceByPosition) {
  const Dataset d = tiny_dataset();
  const Dataset mid = d.slice_bp(150, 250);
  EXPECT_EQ(mid.num_sites(), 1u);
  EXPECT_EQ(mid.position(0), 200);
  const Dataset all = d.slice_bp(0, 1000);
  EXPECT_EQ(all.num_sites(), 3u);
  const Dataset none = d.slice_bp(400, 500);
  EXPECT_EQ(none.num_sites(), 0u);
}

TEST(MsFormat, ParsesCanonicalReplicate) {
  const std::string text =
      "ms 4 1 -t 5\n"
      "1 2 3\n"
      "\n"
      "//\n"
      "segsites: 3\n"
      "positions: 0.10 0.50 0.90\n"
      "010\n"
      "110\n"
      "001\n"
      "011\n";
  std::istringstream in(text);
  omega::io::MsReadOptions options;
  options.locus_length_bp = 1000;
  const auto replicates = omega::io::read_ms(in, options);
  ASSERT_EQ(replicates.size(), 1u);
  const Dataset& d = replicates[0];
  EXPECT_EQ(d.num_samples(), 4u);
  EXPECT_EQ(d.num_sites(), 3u);
  EXPECT_EQ(d.position(0), 100);
  EXPECT_EQ(d.position(2), 900);
  EXPECT_EQ(d.allele(0, 1), 1);  // column 0 of haplotype 1
}

TEST(MsFormat, MultipleReplicates) {
  const std::string text =
      "//\nsegsites: 1\npositions: 0.5\n1\n0\n"
      "//\nsegsites: 2\npositions: 0.25 0.75\n10\n01\n";
  std::istringstream in(text);
  const auto replicates = omega::io::read_ms(in);
  ASSERT_EQ(replicates.size(), 2u);
  EXPECT_EQ(replicates[0].num_sites(), 1u);
  EXPECT_EQ(replicates[1].num_sites(), 2u);
}

TEST(MsFormat, RejectsMalformedInput) {
  {
    std::istringstream in("//\nsegsites: 2\npositions: 0.1 0.2\n10\n1\n");
    EXPECT_THROW(omega::io::read_ms(in), std::runtime_error);  // ragged row
  }
  {
    std::istringstream in("//\nsegsites: 2\npositions: 0.1\n");
    EXPECT_THROW(omega::io::read_ms(in), std::runtime_error);  // count mismatch
  }
  {
    std::istringstream in("//\nsegsites: 1\npositions: 0.1\n2\n");
    EXPECT_THROW(omega::io::read_ms(in), std::runtime_error);  // bad allele
  }
}

TEST(MsFormat, DropsMonomorphicByDefault) {
  std::istringstream in("//\nsegsites: 2\npositions: 0.1 0.2\n10\n10\n");
  const auto replicates = omega::io::read_ms(in);
  ASSERT_EQ(replicates.size(), 1u);
  // Site 0: both derived... both samples have 1 -> monomorphic; site 1 all 0.
  EXPECT_EQ(replicates[0].num_sites(), 0u);
}

TEST(MsFormat, DeduplicatesCollidingPositions) {
  std::istringstream in(
      "//\nsegsites: 2\npositions: 0.50001 0.50002\n10\n01\n");
  omega::io::MsReadOptions options;
  options.locus_length_bp = 100;  // both round to 50
  const auto replicates = omega::io::read_ms(in, options);
  ASSERT_EQ(replicates[0].num_sites(), 2u);
  EXPECT_LT(replicates[0].position(0), replicates[0].position(1));
}

TEST(MsFormat, WriteReadRoundTrip) {
  const Dataset d = tiny_dataset();
  std::ostringstream out;
  omega::io::write_ms(out, {d});
  std::istringstream in(out.str());
  omega::io::MsReadOptions options;
  options.locus_length_bp = d.locus_length_bp();
  options.drop_monomorphic = false;
  const auto replicates = omega::io::read_ms(in, options);
  ASSERT_EQ(replicates.size(), 1u);
  const Dataset& back = replicates[0];
  ASSERT_EQ(back.num_sites(), d.num_sites());
  ASSERT_EQ(back.num_samples(), d.num_samples());
  for (std::size_t s = 0; s < d.num_sites(); ++s) {
    EXPECT_NEAR(static_cast<double>(back.position(s)),
                static_cast<double>(d.position(s)), 1.0);
    for (std::size_t h = 0; h < d.num_samples(); ++h) {
      EXPECT_EQ(back.allele(s, h), d.allele(s, h));
    }
  }
}

TEST(MsFormat, WriteRestoresStreamFormatting) {
  // write_ms needs fixed 6-digit fractions internally but must not leak that
  // state: a caller printing doubles afterwards should see its own format.
  std::ostringstream out;
  out << std::scientific << std::setprecision(3);
  omega::io::write_ms(out, {tiny_dataset()});
  out << 1.5;
  const std::string text = out.str();
  EXPECT_NE(text.find("1.500e+00"), std::string::npos)
      << "caller formatting clobbered by write_ms";

  std::ostringstream defaults;
  omega::io::write_ms(defaults, {tiny_dataset()});
  defaults << 1e-10;  // fixed precision 6 would print 0.000000
  EXPECT_NE(defaults.str().find("1e-10"), std::string::npos)
      << "write_ms left std::fixed on the stream";
}

TEST(Fasta, ParsesRecordsAndExtractsSnps) {
  const std::string text =
      ">s1\nACGTA\n"
      ">s2\nACGTT\n"
      ">s3\nACCTA\n";
  std::istringstream in(text);
  const auto records = omega::io::read_fasta(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "s1");
  const Dataset d = omega::io::fasta_to_dataset(records);
  // Column 2 (G/G/C) and column 4 (A/T/A) are biallelic SNPs.
  ASSERT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(d.position(0), 3);  // 1-based column
  EXPECT_EQ(d.position(1), 5);
  EXPECT_EQ(d.allele(0, 2), 1);  // s3 carries the minor allele C
  EXPECT_EQ(d.allele(1, 1), 1);  // s2 carries the minor allele T
}

TEST(Fasta, RaggedAlignmentThrows) {
  std::istringstream in(">a\nACGT\n>b\nAC\n");
  EXPECT_THROW(omega::io::read_fasta(in), std::runtime_error);
}

TEST(Fasta, GapsImputedAsMajorAllele) {
  std::istringstream in(">a\nA\n>b\nT\n>c\n-\n>d\nA\n");
  const auto records = omega::io::read_fasta(in);
  const Dataset d = omega::io::fasta_to_dataset(records);
  ASSERT_EQ(d.num_sites(), 1u);
  EXPECT_EQ(d.allele(0, 2), 0);  // the gap became the major allele A
  EXPECT_EQ(d.allele(0, 1), 1);
}

TEST(VcfLite, ParsesPhasedDiploid) {
  const std::string text =
      "##fileformat=VCFv4.2\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n"
      "1\t100\t.\tA\tT\t.\tPASS\t.\tGT\t0|1\t1|1\n"
      "1\t200\t.\tC\tG\t.\tPASS\t.\tGT\t0|0\t0|1\n";
  std::istringstream in(text);
  omega::io::VcfLoadReport report;
  const Dataset d = omega::io::read_vcf(in, &report);
  EXPECT_EQ(report.records_total, 2u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(d.num_samples(), 4u);  // 2 samples x 2 haplotypes
  EXPECT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(d.allele(0, 1), 1);
  EXPECT_EQ(d.allele(1, 3), 1);
}

TEST(VcfLite, WriteReadRoundTripDiploid) {
  // 4 haplotypes -> 2 phased diploid samples; includes a missing call.
  const Dataset d({100, 250},
                  {{0, 1, 1, 0}, {1, Dataset::kMissing, 0, 1}}, 1000);
  std::ostringstream out;
  omega::io::write_vcf(out, d);
  std::istringstream in(out.str());
  omega::io::VcfLoadReport report;
  const Dataset back = omega::io::read_vcf(in, &report);
  EXPECT_EQ(report.records_skipped, 0u);
  ASSERT_EQ(back.num_sites(), d.num_sites());
  ASSERT_EQ(back.num_samples(), d.num_samples());
  for (std::size_t s = 0; s < d.num_sites(); ++s) {
    EXPECT_EQ(back.position(s), d.position(s));
    for (std::size_t h = 0; h < d.num_samples(); ++h) {
      EXPECT_EQ(back.allele(s, h), d.allele(s, h)) << s << "," << h;
    }
  }
}

TEST(VcfLite, WriteHaploidColumns) {
  const Dataset d({10}, {{0, 1, 1}}, 100);
  std::ostringstream out;
  omega::io::VcfWriteOptions options;
  options.pair_into_diploids = false;
  omega::io::write_vcf(out, d, options);
  const std::string text = out.str();
  EXPECT_NE(text.find("H0\tH1\tH2"), std::string::npos);
  EXPECT_NE(text.find("GT\t0\t1\t1"), std::string::npos);
}

TEST(VcfLite, OddHaplotypeCountTrailingHaploid) {
  const Dataset d({10}, {{0, 1, 1}}, 100);
  std::ostringstream out;
  omega::io::write_vcf(out, d);
  std::istringstream in(out.str());
  const Dataset back = omega::io::read_vcf(in);
  EXPECT_EQ(back.num_samples(), 3u);  // one diploid pair + one haploid
  EXPECT_EQ(back.allele(0, 2), 1);
}

TEST(VcfLite, CrlfLineEndingsLoseNoRecords) {
  // Windows-edited / http-transferred VCFs terminate every line with \r\n.
  // The trailing \r must be stripped before field splitting — otherwise the
  // last genotype column parses as (e.g.) "1|1\r" and every record is
  // silently skipped.
  const std::string text =
      "##fileformat=VCFv4.2\r\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\r\n"
      "1\t100\t.\tA\tT\t.\tPASS\t.\tGT\t0|1\t1|1\r\n"
      "1\t200\t.\tC\tG\t.\tPASS\t.\tGT\t0|0\t0|1\r\n";
  std::istringstream in(text);
  omega::io::VcfLoadReport report;
  const Dataset d = omega::io::read_vcf(in, &report);
  EXPECT_EQ(report.records_total, 2u);
  EXPECT_EQ(report.records_skipped, 0u);
  ASSERT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(d.num_samples(), 4u);
  EXPECT_EQ(d.position(1), 200);
  EXPECT_EQ(d.allele(0, 3), 1);  // S2's second haplotype, the \r-adjacent call
}

TEST(VcfLite, ShortRecordsCountTowardTotals) {
  // A data line with fewer than 10 fields is unloadable; it must show up in
  // BOTH records_total and records_skipped so total == loaded + skipped
  // holds and the loss is visible.
  const std::string text =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n"
      "1\t100\t.\tA\tT\t.\tPASS\t.\tGT\t0|1\n"
      "1\t150\t.\tA\tT\t.\tPASS\t.\n"  // truncated: 8 fields
      "1\t200\t.\tC\tG\t.\tPASS\t.\tGT\t0|1\n";
  std::istringstream in(text);
  omega::io::VcfLoadReport report;
  const Dataset d = omega::io::read_vcf(in, &report);
  EXPECT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(report.records_skipped, 1u);
  EXPECT_EQ(report.records_total, 3u);
  EXPECT_EQ(report.records_total, d.num_sites() + report.records_skipped);
}

TEST(VcfLite, SkipsNonBiallelicKeepsMissingCalls) {
  const std::string text =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n"
      "1\t100\t.\tA\tT,G\t.\t.\t.\tGT\t0|1\t0|0\n"
      "1\t150\t.\tAT\tA\t.\t.\t.\tGT\t0|1\t0|0\n"
      "1\t200\t.\tA\tT\t.\t.\t.\tGT\t.|1\t0|0\n"
      "1\t300\t.\tA\tT\t.\t.\t.\tGT\t0|1\t0|0\n";
  std::istringstream in(text);
  omega::io::VcfLoadReport report;
  const Dataset d = omega::io::read_vcf(in, &report);
  EXPECT_EQ(report.records_skipped, 2u);  // multi-allelic + indel
  ASSERT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(d.position(0), 200);
  EXPECT_EQ(d.allele(0, 0), Dataset::kMissing);  // the '.' haplotype call
  EXPECT_EQ(d.allele(0, 1), 1);
  EXPECT_TRUE(d.has_missing());
}

TEST(Fasta, KeepMissingOption) {
  std::istringstream in(">a\nAT\n>b\nTT\n>c\n-A\n>d\nAA\n");
  const auto records = omega::io::read_fasta(in);
  omega::io::FastaOptions options;
  options.impute_missing_as_major = false;
  const Dataset d = omega::io::fasta_to_dataset(records, options);
  ASSERT_EQ(d.num_sites(), 2u);
  EXPECT_EQ(d.allele(0, 2), Dataset::kMissing);
  EXPECT_TRUE(d.has_missing());
  EXPECT_EQ(d.valid_count(0), 3u);
}

TEST(MsFormat, RefusesToWriteMissing) {
  const Dataset d({10}, {{0, 1, Dataset::kMissing}}, 100);
  std::ostringstream out;
  EXPECT_THROW(omega::io::write_ms(out, {d}), std::runtime_error);
}

TEST(Dataset, MissingAwareCounts) {
  const Dataset d({10, 20}, {{0, 1, Dataset::kMissing, 1},
                             {1, 1, 1, Dataset::kMissing}}, 100);
  EXPECT_TRUE(d.has_missing());
  EXPECT_EQ(d.derived_count(0), 2u);
  EXPECT_EQ(d.valid_count(0), 3u);
  // Site 1 is monomorphic over its valid calls (all derived).
  Dataset copy = d;
  EXPECT_EQ(copy.remove_monomorphic(), 1u);
  EXPECT_EQ(copy.num_sites(), 1u);
  EXPECT_EQ(copy.position(0), 10);
}

}  // namespace
