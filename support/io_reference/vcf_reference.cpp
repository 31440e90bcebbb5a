#include "io_reference/vcf_reference.h"

#include <istream>
#include <sstream>
#include <vector>

#include "io/parse_error.h"

namespace omega::io::reference {
namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, '\t')) fields.push_back(field);
  return fields;
}

/// Parses one GT field ("0", "1", "0|1", "./1") into haplotype alleles;
/// '.' becomes a missing call (pairwise-complete r2 downstream). Returns
/// false for unparseable fields (multi-digit allele indices etc.).
bool parse_gt(const std::string& gt, std::vector<std::uint8_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < gt.size(); ++i) {
    const char c = gt[i];
    if (c == '0' || c == '1') {
      out.push_back(static_cast<std::uint8_t>(c - '0'));
    } else if (c == '.') {
      out.push_back(Dataset::kMissing);
    } else if (c == '|' || c == '/') {
      continue;
    } else {
      return false;  // multi-digit allele index, malformed field
    }
  }
  return !out.empty();
}

}  // namespace

bool VcfStreamParser::next(VcfRecord& record) {
  if (done_) return false;
  while (std::getline(in_, line_)) {
    // CRLF input: getline keeps the \r, which would otherwise survive into
    // the last GT field and make parse_gt reject every record.
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (line_.empty() || line_[0] == '#') continue;
    auto fields = split_tabs(line_);
    if (fields.size() < 10) {
      // Short data lines are records too: count them as total + skipped so
      // records_total always equals loaded + skipped.
      ++report_.records_total;
      ++report_.records_skipped;
      continue;
    }
    if (contig_.empty()) {
      contig_ = fields[0];
    } else if (fields[0] != contig_) {
      done_ = true;  // only the first contig; the foreign record is not counted
      return false;
    }
    ++report_.records_total;

    // POS must be a plain non-negative integer; garbage or out-of-range
    // values make this a skipped record, not a crashed load.
    const auto pos = try_parse_int64(fields[1]);
    if (!pos || *pos < 0) {
      ++report_.records_skipped;
      continue;
    }
    const std::string& ref = fields[3];
    const std::string& alt = fields[4];
    if (ref.size() != 1 || alt.size() != 1 || alt == "." || alt[0] == '<') {
      ++report_.records_skipped;
      continue;
    }
    // FORMAT must start with GT.
    if (fields[8].rfind("GT", 0) != 0) {
      ++report_.records_skipped;
      continue;
    }
    record.alleles.clear();
    std::vector<std::uint8_t> gt_alleles;
    bool bad = false;
    for (std::size_t f = 9; f < fields.size(); ++f) {
      const auto colon = fields[f].find(':');
      const std::string gt =
          colon == std::string::npos ? fields[f] : fields[f].substr(0, colon);
      if (!parse_gt(gt, gt_alleles)) {
        bad = true;
        break;
      }
      record.alleles.insert(record.alleles.end(), gt_alleles.begin(),
                            gt_alleles.end());
    }
    if (bad) {
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
  VcfRecord record;
  while (parser.next(record)) {
    positions.push_back(record.position_bp);
    sites.push_back(std::move(record.alleles));
  }
  if (report != nullptr) *report = parser.report();
  const std::int64_t length = positions.empty() ? 0 : positions.back();
  Dataset dataset(std::move(positions), std::move(sites), length);
  dataset.remove_monomorphic();
  return dataset;
}

}  // namespace omega::io::reference
