#include "io/vcf_lite.h"

#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>

#include "io/parse_error.h"

namespace omega::io {
namespace {

/// Read block size. Every open parser keeps its buffer resident (a stream
/// scan holds pass 2's for the whole scan), so it stays small; it grows only
/// to hold a longer line.
constexpr std::size_t kBlockBytes = 64 * 1024;

/// What a byte means inside a GT: an allele code (0, 1, Dataset::kMissing),
/// a separator, the end of the GT ('\t' or ':'), or a malformed GT. Random
/// 0/1 calls then flow through data, not through branches.
enum : std::uint8_t { kSeparator = 3, kGtEnd = 4, kBadGt = 5 };
constexpr std::array<std::uint8_t, 256> kGtCodes = [] {
  std::array<std::uint8_t, 256> codes{};
  codes.fill(kBadGt);
  codes['0'] = 0;
  codes['1'] = 1;
  codes['.'] = Dataset::kMissing;
  codes['|'] = codes['/'] = kSeparator;
  codes['\t'] = codes[':'] = kGtEnd;
  return codes;
}();

/// Parses the sample columns of one record (tab-separated; a sample's GT is
/// its field up to the first ':') into `record`'s alleles and derived/valid
/// counts. False when a GT holds anything but 0 1 . | / or no allele.
bool parse_genotypes(std::string_view samples, std::size_t haplotypes,
                     VcfRecord& record) {
  std::vector<std::uint8_t>& alleles = record.alleles;
  alleles.clear();
  alleles.reserve(haplotypes);
  std::size_t derived = 0;
  std::size_t valid = 0;
  const char* p = samples.data();
  const char* const end = p + samples.size();
  for (;;) {
    const std::size_t before = alleles.size();
    for (; p != end; ++p) {
      const std::uint8_t code = kGtCodes[static_cast<unsigned char>(*p)];
      if (code <= Dataset::kMissing) {
        alleles.push_back(code);
        derived += code == 1;
        valid += code != Dataset::kMissing;
      } else if (code == kGtEnd) {
        break;
      } else if (code == kBadGt) {
        return false;  // multi-digit allele index, malformed field
      }
    }
    if (alleles.size() == before) return false;
    if (p != end && *p == ':') {
      const void* tab = std::memchr(p, '\t', static_cast<std::size_t>(end - p));
      p = tab == nullptr ? end : static_cast<const char*>(tab);
    }
    if (p == end) break;
    ++p;  // the tab before the next sample
  }
  record.derived = derived;
  record.valid = valid;
  return true;
}

}  // namespace

VcfStreamParser::VcfStreamParser(std::istream& in)
    : in_(in), buffer_(kBlockBytes) {}

bool VcfStreamParser::refill() {
  if (!in_) return false;  // a short read already hit the end
  const std::size_t kept = end_ - begin_;
  std::memmove(buffer_.data(), buffer_.data() + begin_, kept);
  begin_ = 0;
  end_ = kept;
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  in_.read(buffer_.data() + end_,
           static_cast<std::streamsize>(buffer_.size() - end_));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  return got > 0;
}

bool VcfStreamParser::next_line(std::string_view& line) {
  for (;;) {
    const char* first = buffer_.data() + begin_;
    if (const void* newline = std::memchr(first, '\n', end_ - begin_)) {
      const auto length = static_cast<std::size_t>(
          static_cast<const char*>(newline) - first);
      line = std::string_view(first, length);
      begin_ += length + 1;
      return true;
    }
    if (!refill()) break;
  }
  if (begin_ == end_) return false;
  // The last line has no '\n'.
  line = std::string_view(buffer_.data() + begin_, end_ - begin_);
  begin_ = end_;
  return true;
}

bool VcfStreamParser::next(VcfRecord& record) {
  if (done_) return false;
  std::string_view line;
  while (next_line(line)) {
    // CRLF input: the \r would otherwise survive into the last GT field and
    // make every record fail the GT rule.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    // One trailing tab ends the last field rather than starting another.
    if (line.back() == '\t') line.remove_suffix(1);
    // CHROM..FORMAT, each ended by a tab; the ninth tab means a tenth field.
    std::array<std::string_view, 9> fixed;
    std::size_t start = 0;
    std::size_t found = 0;
    for (; found < fixed.size(); ++found) {
      const std::size_t tab = line.find('\t', start);
      if (tab == std::string_view::npos) break;
      fixed[found] = line.substr(start, tab - start);
      start = tab + 1;
    }
    if (found < fixed.size()) {
      // Short data lines are records too: count them as total + skipped so
      // records_total always equals loaded + skipped.
      ++report_.records_total;
      ++report_.records_skipped;
      continue;
    }
    if (contig_.empty()) {
      contig_ = fixed[0];
    } else if (fixed[0] != contig_) {
      done_ = true;  // only the first contig; the foreign record is not counted
      return false;
    }
    ++report_.records_total;

    // POS must be a plain non-negative integer; garbage or out-of-range
    // values make this a skipped record, not a crashed load.
    const auto pos = try_parse_int64(fixed[1]);
    const std::string_view ref = fixed[3];
    const std::string_view alt = fixed[4];
    if (!pos || *pos < 0 || ref.size() != 1 || alt.size() != 1 ||
        alt[0] == '.' || alt[0] == '<' || !fixed[8].starts_with("GT") ||
        !parse_genotypes(line.substr(start), haplotypes_, record)) {
      ++report_.records_skipped;
      continue;
    }
    if (haplotypes_ == 0) {
      haplotypes_ = record.alleles.size();
    } else if (record.alleles.size() != haplotypes_) {
      ++report_.records_skipped;
      continue;  // inconsistent ploidy: skip rather than abort
    }
    if (*pos <= last_position_) {
      ++report_.records_skipped;
      continue;  // unsorted/duplicate positions
    }
    last_position_ = *pos;
    record.position_bp = *pos;
    return true;
  }
  done_ = true;
  return false;
}

Dataset read_vcf(std::istream& in, VcfLoadReport* report) {
  VcfStreamParser parser(in);
  std::vector<std::int64_t> positions;
  std::vector<std::vector<std::uint8_t>> sites;
  std::int64_t length = 0;
  VcfRecord record;
  while (parser.next(record)) {
    length = record.position_bp;
    if (!record.polymorphic()) continue;
    positions.push_back(record.position_bp);
    sites.push_back(std::move(record.alleles));
  }
  if (report != nullptr) *report = parser.report();
  return Dataset(std::move(positions), std::move(sites), length);
}

Dataset read_vcf_file(const std::string& path, VcfLoadReport* report) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("vcf: cannot open " + path);
  return read_vcf(in, report);
}

namespace {

char gt_char(std::uint8_t allele) {
  return allele == Dataset::kMissing ? '.'
                                     : static_cast<char>('0' + allele);
}

}  // namespace

void write_vcf(std::ostream& out, const Dataset& dataset,
               const VcfWriteOptions& options) {
  const std::size_t haplotypes = dataset.num_samples();
  const std::size_t diploids =
      options.pair_into_diploids ? haplotypes / 2 : 0;
  const bool trailing_haploid =
      options.pair_into_diploids && (haplotypes % 2) == 1;

  out << "##fileformat=VCFv4.2\n";
  out << "##source=libomega\n";
  out << "##contig=<ID=" << options.contig << ">\n";
  out << "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT";
  if (options.pair_into_diploids) {
    for (std::size_t s = 0; s < diploids + (trailing_haploid ? 1 : 0); ++s) {
      out << "\tS" << s;
    }
  } else {
    for (std::size_t h = 0; h < haplotypes; ++h) out << "\tH" << h;
  }
  out << "\n";

  for (std::size_t site = 0; site < dataset.num_sites(); ++site) {
    out << options.contig << '\t' << dataset.position(site)
        << "\t.\tA\tT\t.\tPASS\t.\tGT";
    if (options.pair_into_diploids) {
      for (std::size_t s = 0; s < diploids; ++s) {
        out << '\t' << gt_char(dataset.allele(site, 2 * s)) << '|'
            << gt_char(dataset.allele(site, 2 * s + 1));
      }
      if (trailing_haploid) {
        out << '\t' << gt_char(dataset.allele(site, haplotypes - 1));
      }
    } else {
      for (std::size_t h = 0; h < haplotypes; ++h) {
        out << '\t' << gt_char(dataset.allele(site, h));
      }
    }
    out << "\n";
  }
}

void write_vcf_file(const std::string& path, const Dataset& dataset,
                    const VcfWriteOptions& options) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("vcf: cannot open for write " + path);
  write_vcf(out, dataset, options);
}

}  // namespace omega::io
