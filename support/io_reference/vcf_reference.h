#pragma once
// The istringstream VCF-lite parser the library shipped before its in-place
// tokenizer, kept as the oracle the tokenizer is differentially tested
// against (tests/test_vcf_tokenizer.cpp). It applies the same rules as
// io::VcfStreamParser (io/vcf_lite.h) one std::string per field: getline per
// line, an istringstream split into a vector of fields, and a substr copy of
// each GT. read_vcf() loads every record, then runs
// Dataset::remove_monomorphic. Nothing under src/ may depend on this target.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "io/dataset.h"
#include "io/vcf_lite.h"

namespace omega::io::reference {

/// Record-level parser with io::VcfStreamParser's interface. It fills
/// `record.position_bp` and `record.alleles` only; the derived/valid counts
/// are left as they are.
class VcfStreamParser {
 public:
  explicit VcfStreamParser(std::istream& in) : in_(in) {}

  bool next(VcfRecord& record);

  [[nodiscard]] const VcfLoadReport& report() const noexcept { return report_; }
  [[nodiscard]] std::size_t haplotypes() const noexcept { return haplotypes_; }
  [[nodiscard]] const std::string& contig() const noexcept { return contig_; }

 private:
  std::istream& in_;
  VcfLoadReport report_;
  std::string contig_;
  std::string line_;
  std::int64_t last_position_ = -1;
  std::size_t haplotypes_ = 0;
  bool done_ = false;
};

Dataset read_vcf(std::istream& in, VcfLoadReport* report = nullptr);

}  // namespace omega::io::reference
