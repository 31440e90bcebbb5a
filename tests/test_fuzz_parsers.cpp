// Robustness fuzzing for the text parsers: random garbage, truncations, and
// structured mutations must produce either a parsed result or a typed
// exception — never a crash, hang, or invariant-violating Dataset.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/fasta.h"
#include "io/ms_format.h"
#include "io/parse_error.h"
#include "io/vcf_lite.h"
#include "util/prng.h"

namespace {

using omega::util::Xoshiro256;

std::string random_garbage(Xoshiro256& rng, std::size_t length) {
  static constexpr char alphabet[] =
      "01acgtACGT \t\n.|/>#-:;,segsitespositions0123456789";
  std::string text;
  text.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    text.push_back(alphabet[rng.bounded(sizeof(alphabet) - 1)]);
  }
  return text;
}

/// A structurally plausible ms replicate that mutations can corrupt.
std::string valid_ms() {
  return "//\nsegsites: 4\npositions: 0.1 0.2 0.5 0.9\n"
         "0101\n1100\n0011\n";
}

template <typename Parser>
void expect_no_crash(const std::string& text, Parser parse) {
  std::istringstream in(text);
  try {
    parse(in);
  } catch (const std::exception&) {
    // Typed failure is acceptable; crashes/UB are what the fuzz hunts.
  }
}

TEST(FuzzParsers, MsRandomGarbage) {
  Xoshiro256 rng(0xF00D);
  for (int round = 0; round < 300; ++round) {
    expect_no_crash(random_garbage(rng, 20 + rng.bounded(400)),
                    [](std::istream& in) { (void)omega::io::read_ms(in); });
  }
}

TEST(FuzzParsers, MsStructuredMutations) {
  Xoshiro256 rng(0xBEEF);
  for (int round = 0; round < 300; ++round) {
    std::string text = valid_ms();
    // Mutate a few random bytes.
    const std::size_t edits = 1 + rng.bounded(5);
    for (std::size_t e = 0; e < edits; ++e) {
      text[rng.bounded(text.size())] =
          static_cast<char>(32 + rng.bounded(90));
    }
    std::istringstream in(text);
    try {
      const auto replicates = omega::io::read_ms(in);
      for (const auto& dataset : replicates) {
        dataset.validate();  // anything parsed must satisfy invariants
      }
    } catch (const std::exception&) {
    }
  }
}

TEST(FuzzParsers, MsTruncations) {
  const std::string text = valid_ms();
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    std::istringstream in(text.substr(0, cut));
    try {
      for (const auto& dataset : omega::io::read_ms(in)) dataset.validate();
    } catch (const std::exception&) {
    }
  }
}

TEST(FuzzParsers, FastaRandomGarbage) {
  Xoshiro256 rng(0xCAFE);
  for (int round = 0; round < 300; ++round) {
    expect_no_crash(random_garbage(rng, 20 + rng.bounded(300)),
                    [](std::istream& in) {
                      const auto records = omega::io::read_fasta(in, false);
                      if (!records.empty() &&
                          !records.front().sequence.empty()) {
                        bool aligned = true;
                        for (const auto& record : records) {
                          aligned &= record.sequence.size() ==
                                     records.front().sequence.size();
                        }
                        if (aligned) {
                          omega::io::fasta_to_dataset(records).validate();
                        }
                      }
                    });
  }
}

TEST(FuzzParsers, VcfRandomGarbage) {
  Xoshiro256 rng(0xD00D);
  for (int round = 0; round < 300; ++round) {
    std::string text =
        "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n";
    text += random_garbage(rng, 30 + rng.bounded(300));
    expect_no_crash(text, [](std::istream& in) {
      omega::io::read_vcf(in).validate();
    });
  }
}

TEST(FuzzParsers, VcfStructuredMutations) {
  Xoshiro256 rng(0xABBA);
  const std::string base =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n"
      "1\t100\t.\tA\tT\t.\t.\t.\tGT\t0|1\t1|1\n"
      "1\t200\t.\tC\tG\t.\t.\t.\tGT\t0|0\t.|1\n";
  for (int round = 0; round < 300; ++round) {
    std::string text = base;
    const std::size_t edits = 1 + rng.bounded(4);
    for (std::size_t e = 0; e < edits; ++e) {
      text[rng.bounded(text.size())] = static_cast<char>(32 + rng.bounded(90));
    }
    expect_no_crash(text, [](std::istream& in) {
      omega::io::read_vcf(in).validate();
    });
  }
}

// ---- Crash corpus: regressions for the raw-stoi/stoll era -----------------
// These inputs used to escape as std::invalid_argument / std::out_of_range
// (or crash the loader outright); they must now produce a typed ParseError,
// a skipped record, or a clean parse — never an unrelated exception type.

TEST(ParserHardening, MsSegsitesOverflowIsParseError) {
  std::istringstream in(
      "//\nsegsites: 999999999999999999999999\npositions: 0.5\n1\n");
  try {
    (void)omega::io::read_ms(in);
    FAIL() << "expected ParseError";
  } catch (const omega::io::ParseError& error) {
    EXPECT_EQ(error.format(), "ms");
    EXPECT_EQ(error.line(), 2u);
    EXPECT_NE(error.reason().find("segsites"), std::string::npos);
  }
}

TEST(ParserHardening, MsSegsitesGarbageIsParseError) {
  std::istringstream garbage("//\nsegsites: lots\n");
  EXPECT_THROW((void)omega::io::read_ms(garbage), omega::io::ParseError);
  std::istringstream truncated("//\nsegsites:\n");
  EXPECT_THROW((void)omega::io::read_ms(truncated), omega::io::ParseError);
}

TEST(ParserHardening, MsBadAlleleIsParseErrorWithReplicateLine) {
  std::istringstream in(
      "header\n\n//\nsegsites: 3\npositions: 0.1 0.2 0.3\n010\n0x0\n");
  try {
    (void)omega::io::read_ms(in);
    FAIL() << "expected ParseError";
  } catch (const omega::io::ParseError& error) {
    EXPECT_EQ(error.line(), 3u);  // the replicate's "//" marker
    EXPECT_NE(error.reason().find("allele"), std::string::npos);
  }
}

TEST(ParserHardening, MsParseErrorIsARuntimeError) {
  // Existing catch sites handle std::runtime_error; the typed error must
  // keep flowing through them.
  std::istringstream in("//\nsegsites: nope\n");
  EXPECT_THROW((void)omega::io::read_ms(in), std::runtime_error);
}

TEST(ParserHardening, VcfPosOverflowIsSkippedNotFatal) {
  const std::string text =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n"
      "1\t999999999999999999999999\t.\tA\tT\t.\t.\t.\tGT\t0|1\t1|0\n"
      "1\t200\t.\tC\tG\t.\t.\t.\tGT\t0|1\t1|0\n";
  std::istringstream in(text);
  omega::io::VcfLoadReport report;
  const auto dataset = omega::io::read_vcf(in, &report);
  EXPECT_EQ(report.records_total, 2u);
  EXPECT_EQ(report.records_skipped, 1u);
  EXPECT_EQ(dataset.num_sites(), 1u);
  EXPECT_EQ(dataset.position(0), 200);
}

TEST(ParserHardening, VcfGarbagePosIsSkippedNotFatal) {
  const std::string text =
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n"
      "1\tabc\t.\tA\tT\t.\t.\t.\tGT\t0|1\t1|0\n"
      "1\t-5\t.\tA\tT\t.\t.\t.\tGT\t0|1\t1|0\n"
      "1\t\t.\tA\tT\t.\t.\t.\tGT\t0|1\t1|0\n"
      "1\t100\t.\tA\tT\t.\t.\t.\tGT\t0|1\t1|0\n";
  std::istringstream in(text);
  omega::io::VcfLoadReport report;
  const auto dataset = omega::io::read_vcf(in, &report);
  EXPECT_EQ(report.records_skipped, 3u);
  EXPECT_EQ(dataset.num_sites(), 1u);
}

TEST(ParserHardening, TryParseHelpersRejectJunk) {
  using omega::io::try_parse_int64;
  using omega::io::try_parse_uint64;
  EXPECT_EQ(try_parse_int64("123"), 123);
  EXPECT_EQ(try_parse_int64("-7"), -7);
  EXPECT_FALSE(try_parse_int64(""));
  EXPECT_FALSE(try_parse_int64("12x"));
  EXPECT_FALSE(try_parse_int64(" 12"));
  EXPECT_FALSE(try_parse_int64("999999999999999999999999"));
  EXPECT_EQ(try_parse_uint64("42"), 42u);
  EXPECT_FALSE(try_parse_uint64("-1"));
  EXPECT_FALSE(try_parse_uint64("18446744073709551616"));  // 2^64
}

}  // namespace
