// Differential test of the in-place VCF tokenizer (io/vcf_lite.h) against
// the istringstream parser it replaced (support/io_reference): seeded
// documents mixing loadable records with the edge case of every parse rule
// must give equal records, load reports, haplotype counts and contigs, and
// read_vcf must build equal Datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "io/dataset.h"
#include "io/vcf_lite.h"
#include "io_reference/vcf_reference.h"
#include "util/prng.h"

namespace {

using omega::io::Dataset;
using omega::io::VcfLoadReport;
using omega::io::VcfRecord;
using omega::util::Xoshiro256;

/// The tokenizer reads its stream in blocks of this many bytes.
constexpr std::size_t kBlockBytes = 64 * 1024;

template <typename T>
const T& pick(Xoshiro256& rng, const std::vector<T>& options) {
  return options[rng.bounded(options.size())];
}

bool chance(Xoshiro256& rng, double p) { return rng.uniform() < p; }

/// Document shape shared by its records: sample count and ploidy.
struct Shape {
  std::size_t samples = 1;
  std::size_t ploidy = 1;
};

std::string genotype(Xoshiro256& rng, std::size_t ploidy) {
  static const std::vector<std::string> odd = {
      "01", "0|1|1", "|", "", "2", "0|2", "0||1", ".", "./.", "1/.",
      ":5", "0|1:35", "0:1", "a", "0 |1", "0|1\r", "-1"};
  if (chance(rng, 0.01)) return pick(rng, odd);
  static const char kCalls[] = "0011.";
  std::string gt(1, kCalls[rng.bounded(5)]);
  for (std::size_t p = 1; p < ploidy; ++p) {
    gt += chance(rng, 0.8) ? '|' : '/';
    gt += kCalls[rng.bounded(5)];
  }
  return gt;
}

std::string position_field(Xoshiro256& rng, std::int64_t& last) {
  static const std::vector<std::string> bad = {
      "-5", "abc", "99999999999999999999", "9223372036854775807",
      "+5", "", "12a", "0x10", " 7", "1e3", "-0", "0"};
  if (chance(rng, 0.03)) return pick(rng, bad);
  if (chance(rng, 0.04)) {
    // Unsorted or duplicate.
    return std::to_string(std::max<std::int64_t>(0, last - rng.bounded(3)));
  }
  last += 1 + static_cast<std::int64_t>(rng.bounded(100));
  return std::to_string(last);
}

std::string record(Xoshiro256& rng, const Shape& shape,
                   const std::string& chrom, std::int64_t& last,
                   std::size_t extra_samples) {
  static const std::vector<std::string> refs = {"A", "C", "G", "T"};
  static const std::vector<std::string> odd_refs = {"AT", "", ".", "N"};
  static const std::vector<std::string> alts = {"T", "G", "C", "A"};
  static const std::vector<std::string> odd_alts = {
      "T,G", ".", "<DEL>", "<", "TG", "", "*", "<*>"};
  static const std::vector<std::string> formats = {"GT", "GT", "GT", "GT:DP"};
  static const std::vector<std::string> odd_formats = {
      "DP:GT", "G", "GTX", "", "gt", "GT:"};

  std::size_t samples = shape.samples + extra_samples;
  std::size_t ploidy = shape.ploidy;
  if (chance(rng, 0.03)) ploidy = 3 - ploidy;  // a ploidy change
  if (chance(rng, 0.03)) samples = samples > 1 ? samples - 1 : samples + 1;

  std::vector<std::string> fields = {
      chrom,
      position_field(rng, last),
      chance(rng, 0.5) ? "." : "rs" + std::to_string(rng.bounded(1000)),
      chance(rng, 0.03) ? pick(rng, odd_refs) : pick(rng, refs),
      chance(rng, 0.05) ? pick(rng, odd_alts) : pick(rng, alts),
      ".",
      "PASS",
      chance(rng, 0.5) ? "." : "AC=1;AN=2",
      chance(rng, 0.03) ? pick(rng, odd_formats) : pick(rng, formats)};
  const bool with_dp = fields[8] == "GT:DP";
  for (std::size_t s = 0; s < samples; ++s) {
    std::string gt = genotype(rng, ploidy);
    if (with_dp && chance(rng, 0.7)) {
      gt += ":" + std::to_string(rng.bounded(60));
    }
    fields.push_back(std::move(gt));
  }
  if (chance(rng, 0.03)) fields.resize(1 + rng.bounded(9));  // a short line
  std::string line;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (f > 0) line += '\t';
    line += fields[f];
  }
  return line;
}

/// One seeded document; `long_samples` > 0 adds records that long.
std::string document(Xoshiro256& rng, std::size_t long_samples = 0) {
  const Shape shape{1 + rng.bounded(6), 1 + rng.bounded(2)};
  const bool crlf = chance(rng, 0.2);
  std::string text;
  if (chance(rng, 0.7)) text += "##fileformat=VCFv4.2\n";
  if (chance(rng, 0.8)) {
    text += "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT";
    for (std::size_t s = 0; s < shape.samples; ++s) {
      text += "\tS" + std::to_string(s);
    }
    text += '\n';
  }
  std::string chrom = chance(rng, 0.9) ? "1" : "chr20";
  std::int64_t last = static_cast<std::int64_t>(rng.bounded(1000));
  const std::size_t lines = rng.bounded(14);
  for (std::size_t l = 0; l < lines; ++l) {
    std::string line;
    const double kind = rng.uniform();
    if (kind < 0.04) {
      line = "";
    } else if (kind < 0.07) {
      line = "# a comment\tline";
    } else {
      // A contig switch now and then.
      if (chance(rng, 0.03)) chrom = chrom == "1" ? "2" : "1";
      const std::size_t extra = long_samples > 0 && chance(rng, 0.5)
                                    ? long_samples - shape.samples
                                    : 0;
      line = record(rng, shape, chrom, last, extra);
    }
    if (chance(rng, 0.05)) line += '\t';
    if (chance(rng, 0.03)) line += "\t\t";
    if (crlf || chance(rng, 0.02)) line += '\r';
    text += line;
    // The last line sometimes has no newline.
    if (l + 1 < lines || chance(rng, 0.85)) text += '\n';
  }
  if (!text.empty() && chance(rng, 0.1)) {
    static const char kEdits[] = "01.|/:\t\r\n#<,ACGT-9 x";
    const std::size_t edits = 1 + rng.bounded(4);
    for (std::size_t e = 0; e < edits; ++e) {
      text[rng.bounded(text.size())] = kEdits[rng.bounded(sizeof(kEdits) - 1)];
    }
  }
  return text;
}

std::string describe(const VcfLoadReport& report) {
  return std::to_string(report.records_total) + " total, " +
         std::to_string(report.records_skipped) + " skipped";
}

/// Empty when the tokenizer and the reference agree on `text`, else the
/// first difference.
std::string first_difference(const std::string& text) {
  std::istringstream in(text);
  std::istringstream reference_in(text);
  omega::io::VcfStreamParser parser(in);
  omega::io::reference::VcfStreamParser reference(reference_in);
  VcfRecord got;
  VcfRecord want;
  for (std::size_t r = 0;; ++r) {
    const bool has_got = parser.next(got);
    const bool has_want = reference.next(want);
    const std::string where = "record " + std::to_string(r) + ": ";
    if (has_got != has_want) {
      return where + (has_got ? "extra record" : "missing record");
    }
    if (!has_got) break;
    if (got.position_bp != want.position_bp) return where + "position";
    if (got.alleles != want.alleles) return where + "alleles";
    const auto derived = static_cast<std::size_t>(
        std::count(want.alleles.begin(), want.alleles.end(), 1));
    const auto valid = want.alleles.size() -
                       static_cast<std::size_t>(std::count(
                           want.alleles.begin(), want.alleles.end(),
                           Dataset::kMissing));
    if (got.derived != derived || got.valid != valid) return where + "counts";
  }
  if (parser.report().records_total != reference.report().records_total ||
      parser.report().records_skipped != reference.report().records_skipped) {
    return "stream report " + describe(parser.report()) + " vs " +
           describe(reference.report());
  }
  if (parser.haplotypes() != reference.haplotypes()) return "haplotypes";
  if (parser.contig() != reference.contig()) return "contig";

  std::istringstream load_in(text);
  std::istringstream reference_load_in(text);
  VcfLoadReport report;
  VcfLoadReport reference_report;
  const Dataset loaded = omega::io::read_vcf(load_in, &report);
  const Dataset expected =
      omega::io::reference::read_vcf(reference_load_in, &reference_report);
  if (report.records_total != reference_report.records_total ||
      report.records_skipped != reference_report.records_skipped) {
    return "read_vcf report " + describe(report) + " vs " +
           describe(reference_report);
  }
  if (loaded.positions() != expected.positions()) return "read_vcf positions";
  if (loaded.locus_length_bp() != expected.locus_length_bp()) {
    return "read_vcf locus length";
  }
  if (loaded.num_samples() != expected.num_samples()) return "read_vcf samples";
  for (std::size_t s = 0; s < loaded.num_sites(); ++s) {
    if (loaded.site(s) != expected.site(s)) {
      return "read_vcf site " + std::to_string(s);
    }
  }
  return {};
}

/// `text` with control characters spelled out, for failure messages.
std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n\n";
    } else {
      out += c;
    }
  }
  return out.size() > 4'000 ? out.substr(0, 4'000) + "..." : out;
}

TEST(VcfTokenizerDifferential, SeededDocumentsMatchTheReference) {
  Xoshiro256 rng(0x7C4);
  for (std::size_t d = 0; d < 100'000; ++d) {
    const std::string text = document(rng);
    ASSERT_EQ(first_difference(text), "")
        << "document " << d << ":\n" << printable(text);
  }
}

TEST(VcfTokenizerDifferential, RecordsLongerThanTheReadBlock) {
  Xoshiro256 rng(0x10C4);
  for (std::size_t d = 0; d < 60; ++d) {
    // Diploid "0|1\t" is four bytes a sample, so these lines run from just
    // over one block to about four, growing the buffer more than once.
    const std::size_t samples =
        kBlockBytes / 4 + 1 + rng.bounded(3 * kBlockBytes / 4);
    const std::string text = document(rng, samples);
    ASSERT_EQ(first_difference(text), "")
        << "document " << d << ":\n" << printable(text);
  }
}

TEST(VcfTokenizerDifferential, CrlfSplitAcrossARefill) {
  const std::string body = "1\t500\t.\tA\tT\t.\tPASS\t.\tGT\t0|1\t1|1";
  const std::string next = "1\t600\t.\tC\tG\t.\tPASS\t.\tGT\t1|0\t0|0\r\n";
  // Put the record's '\r' a few bytes either side of the first block's last
  // byte, so its "\r\n" lands before, across and after the refill.
  for (std::size_t cr = kBlockBytes - 3; cr <= kBlockBytes + 2; ++cr) {
    std::string text =
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tA\tB\r\n";
    const std::size_t comment = cr - body.size() - text.size() - 1;
    text += "##" + std::string(comment - 2, 'x') + "\n";
    text += body + "\r\n" + next;
    ASSERT_EQ(text[cr], '\r');
    ASSERT_EQ(first_difference(text), "") << "'\\r' at byte " << cr;
    std::istringstream in(text);
    VcfLoadReport report;
    const Dataset loaded = omega::io::read_vcf(in, &report);
    EXPECT_EQ(report.records_total, 2u);
    EXPECT_EQ(report.records_skipped, 0u);
    ASSERT_EQ(loaded.num_sites(), 2u);
    EXPECT_EQ(loaded.site(0), (std::vector<std::uint8_t>{0, 1, 1, 1}));
  }
}

}  // namespace
