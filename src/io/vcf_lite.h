#pragma once
// "VCF-lite" importer: enough of VCF 4.x to load biallelic haploid/phased
// genotype records into a Dataset. Supports the subset produced by common
// simulators and by bcftools view on phased panels:
//   #CHROM POS ID REF ALT QUAL FILTER INFO FORMAT S1 S2 ...
// with GT fields like 0, 1, 0|1, 1/1.
//
// Parse rules, all applied by VcfStreamParser (their single home):
//   * Lines end at '\n'; one trailing '\r' is stripped first (CRLF input).
//     The last line needs no newline.
//   * Blank lines and lines starting with '#' are not records and are not
//     counted.
//   * Fields are tab-separated, and one trailing tab adds no field. A data
//     line with fewer than 10 fields is a record: counted and skipped.
//   * Only the first contig is read. The first 10-field record with another
//     CHROM ends the input and is not counted.
//   * POS is a plain decimal, non-negative int64 (try_parse_int64: no stray
//     characters, no overflow).
//   * REF and ALT are single characters, and ALT is neither '.' nor '<':
//     multi-allelic, indel and symbolic records are skipped.
//   * FORMAT starts with "GT". A sample's GT is its field up to the first
//     ':', and holds only 0 1 . | / with at least one allele ('.' is a
//     missing call). Any other GT skips the record.
//   * The first loaded record locks the haplotype count (phased diploid GTs
//     give two per sample); a record with another count is skipped.
//   * Positions strictly increase: a record at or before the last loaded
//     position is skipped.
//   * VcfLoadReport::records_total always equals loaded + records_skipped.
//
// The parser tokenizes in place: it reads its stream in 64 KiB blocks (a
// block grows only to hold a longer line), finds lines and fields with
// memchr, and writes GT calls straight into VcfRecord::alleles while
// counting derived and valid calls. It reads ahead of the record it
// returns, so once a parser has read from a stream, no caller may read from
// or reposition that stream again.
//
// Two consumption modes share the parser:
//   * read_vcf()      — materializes the whole first contig into a Dataset,
//     dropping monomorphic records as they arrive;
//   * VcfStreamParser — yields one record at a time, which is what the
//     streaming chunk reader (io/chunk_reader.h) builds bounded-memory
//     whole-genome scans on.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/dataset.h"

namespace omega::io {

struct VcfLoadReport {
  /// Every data line seen on the first contig, loadable or not; always equals
  /// loaded records + records_skipped.
  std::size_t records_total = 0;
  /// Short (< 10 fields) / multi-allelic / symbolic / malformed-GT /
  /// unsorted records.
  std::size_t records_skipped = 0;
};

/// One loadable record: its bp position, the per-haplotype alleles
/// (0/1/Dataset::kMissing), and how many of them are derived (1) and valid
/// (not missing).
struct VcfRecord {
  std::int64_t position_bp = 0;
  std::vector<std::uint8_t> alleles;
  std::size_t derived = 0;
  std::size_t valid = 0;

  /// The monomorphic filter's keep rule (Dataset::remove_monomorphic): the
  /// site carries LD information iff both alleles occur among valid calls.
  [[nodiscard]] bool polymorphic() const noexcept {
    return derived > 0 && derived < valid;
  }
};

/// Incremental record-level VCF parser over the first contig. next() skips
/// (and counts) unloadable records internally, so callers only ever see
/// loadable ones; it returns false at end of input or on the first record of
/// a second contig (which is neither counted nor loaded).
class VcfStreamParser {
 public:
  explicit VcfStreamParser(std::istream& in);

  /// Advances to the next loadable record. `record` is overwritten;
  /// `record.alleles` keeps its capacity, or is reserved to the locked
  /// haplotype count when it has none.
  bool next(VcfRecord& record);

  [[nodiscard]] const VcfLoadReport& report() const noexcept { return report_; }
  /// Haplotype count locked in by the first loaded record (0 before then).
  [[nodiscard]] std::size_t haplotypes() const noexcept { return haplotypes_; }
  [[nodiscard]] const std::string& contig() const noexcept { return contig_; }

 private:
  /// Points `line` at the next line, without its '\n'. False at end of
  /// input. The view is valid until the next call.
  bool next_line(std::string_view& line);
  /// Moves the unconsumed bytes to the front of the buffer, doubling it when
  /// they fill it, and reads behind them. False once the stream has no more.
  bool refill();

  std::istream& in_;
  VcfLoadReport report_;
  std::string contig_;
  /// Bytes [begin_, end_) are read and not yet consumed.
  std::vector<char> buffer_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::int64_t last_position_ = -1;
  std::size_t haplotypes_ = 0;
  bool done_ = false;
};

/// Loads the first contig's polymorphic records. The locus length is the
/// last loaded record's position, whether or not it is polymorphic.
Dataset read_vcf(std::istream& in, VcfLoadReport* report = nullptr);
Dataset read_vcf_file(const std::string& path, VcfLoadReport* report = nullptr);

struct VcfWriteOptions {
  std::string contig = "1";
  /// Haplotypes are paired into phased diploid samples (hap 2i | hap 2i+1);
  /// with an odd haplotype count the last sample is haploid.
  bool pair_into_diploids = true;
};

/// Writes the dataset as VCF 4.2 (REF=A, ALT=T placeholder alleles; missing
/// calls become '.'). Round-trips through read_vcf.
void write_vcf(std::ostream& out, const Dataset& dataset,
               const VcfWriteOptions& options = {});
void write_vcf_file(const std::string& path, const Dataset& dataset,
                    const VcfWriteOptions& options = {});

}  // namespace omega::io
