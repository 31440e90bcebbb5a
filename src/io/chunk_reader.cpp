#include "io/chunk_reader.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "io/parse_error.h"

namespace omega::io {
namespace {

[[noreturn]] void throw_changed(const std::string& path) {
  throw std::runtime_error("vcf-stream: " + path +
                           " changed between indexing and streaming");
}

}  // namespace

void ChunkReader::adopt_plan(std::vector<SiteRange> ranges,
                             std::size_t num_sites) {
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    const SiteRange& r = ranges[k];
    if (r.begin >= r.end || r.end > num_sites) {
      throw std::invalid_argument("chunk plan: range " + std::to_string(k) +
                                  " [" + std::to_string(r.begin) + ", " +
                                  std::to_string(r.end) + ") invalid for " +
                                  std::to_string(num_sites) + " sites");
    }
    if (k > 0 &&
        (r.begin < ranges[k - 1].begin || r.end < ranges[k - 1].end)) {
      throw std::invalid_argument(
          "chunk plan: ranges must advance monotonically (range " +
          std::to_string(k) + " steps backwards)");
    }
  }
  ranges_ = std::move(ranges);
  cursor_ = 0;
}

// ---------------------------------------------------------------- Dataset --

DatasetChunkReader::DatasetChunkReader(const Dataset& dataset)
    : dataset_(dataset) {
  index_.positions_bp = dataset.positions();
  index_.num_samples = dataset.num_samples();
  index_.locus_length_bp = dataset.locus_length_bp();
  index_.has_missing = dataset.has_missing();
}

void DatasetChunkReader::plan(std::vector<SiteRange> ranges) {
  adopt_plan(std::move(ranges), index_.num_sites());
}

std::optional<DatasetChunk> DatasetChunkReader::next() {
  if (cursor_ >= ranges_.size()) return std::nullopt;
  const SiteRange range = ranges_[cursor_];
  std::vector<std::int64_t> positions(
      index_.positions_bp.begin() + static_cast<std::ptrdiff_t>(range.begin),
      index_.positions_bp.begin() + static_cast<std::ptrdiff_t>(range.end));
  std::vector<std::vector<std::uint8_t>> sites;
  sites.reserve(range.size());
  for (std::size_t s = range.begin; s < range.end; ++s) {
    sites.push_back(dataset_.site(s));
  }
  DatasetChunk chunk{Dataset(std::move(positions), std::move(sites),
                             index_.locus_length_bp),
                     range.begin, cursor_};
  ++cursor_;
  return chunk;
}

// -------------------------------------------------------------------- VCF --

VcfChunkReader::VcfChunkReader(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("vcf: cannot open " + path_);
  VcfStreamParser parser(in);
  VcfRecord record;
  while (parser.next(record)) {
    // locus length follows read_vcf: the last loadable record's position,
    // whether or not the monomorphic filter keeps it.
    index_.locus_length_bp = record.position_bp;
    if (!record.polymorphic()) continue;
    index_.positions_bp.push_back(record.position_bp);
    index_.has_missing =
        index_.has_missing || record.valid < record.alleles.size();
  }
  index_.num_samples = parser.haplotypes();
  load_report_ = parser.report();
}

void VcfChunkReader::plan(std::vector<SiteRange> ranges) {
  // Open before adopting the ranges: a failed reopen leaves the old plan
  // whole, never new ranges over the old plan's parser.
  auto file = std::make_unique<std::ifstream>(path_);
  if (!*file) throw std::runtime_error("vcf: cannot reopen " + path_);
  auto parser = std::make_unique<VcfStreamParser>(*file);
  adopt_plan(std::move(ranges), index_.num_sites());
  parser_ = std::move(parser);
  file_ = std::move(file);
  buffer_.clear();
  buffer_first_ = 0;
  parsed_kept_ = 0;
}

void VcfChunkReader::fill_to(std::size_t target) {
  VcfRecord record;
  while (parsed_kept_ <= target && parser_->next(record)) {
    if (!record.polymorphic()) continue;
    // Pass 2 must re-find exactly the sites pass 1 indexed.
    if (record.position_bp != index_.positions_bp[parsed_kept_] ||
        record.alleles.size() != index_.num_samples) {
      throw_changed(path_);
    }
    buffer_.push_back(std::move(record.alleles));
    ++parsed_kept_;
  }
  // Fewer kept sites than pass 1 indexed: the file shrank.
  if (parsed_kept_ <= target) throw_changed(path_);
}

std::optional<DatasetChunk> VcfChunkReader::next() {
  if (cursor_ >= ranges_.size()) return std::nullopt;
  const SiteRange range = ranges_[cursor_];
  // Release sites the remaining plan can no longer touch.
  while (buffer_first_ < range.begin) {
    buffer_.pop_front();
    ++buffer_first_;
  }
  fill_to(range.end - 1);
  std::vector<std::int64_t> positions(
      index_.positions_bp.begin() + static_cast<std::ptrdiff_t>(range.begin),
      index_.positions_bp.begin() + static_cast<std::ptrdiff_t>(range.end));
  std::vector<std::vector<std::uint8_t>> sites;
  sites.reserve(range.size());
  for (std::size_t s = range.begin; s < range.end; ++s) {
    sites.push_back(buffer_[s - buffer_first_]);
  }
  DatasetChunk chunk{Dataset(std::move(positions), std::move(sites),
                             index_.locus_length_bp),
                     range.begin, cursor_};
  ++cursor_;
  return chunk;
}

// --------------------------------------------------------------------- ms --

MsChunkReader::MsChunkReader(const std::string& path, MsReadOptions options,
                             std::size_t replicate) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ms: cannot open " + path);
  raw_ = read_ms_replicate_raw(in, replicate);

  const std::size_t sites = raw_.fractions.size();
  for (const auto& hap : raw_.haplotypes) {
    if (hap.size() != sites) {
      throw ParseError("ms", raw_.replicate_line,
                       "haplotype width " + std::to_string(hap.size()) +
                           " != segsites " + std::to_string(sites));
    }
    for (const char c : hap) {
      if (c != '0' && c != '1') {
        throw ParseError("ms", raw_.replicate_line,
                         std::string("invalid allele character '") + c + "'");
      }
    }
  }

  // Coordinates first (over every raw site — the dedup nudge depends on the
  // unfiltered order), then the monomorphic filter, exactly as read_ms does.
  const std::vector<std::int64_t> raw_positions =
      ms_positions_bp(raw_.fractions, options, raw_.replicate_line);
  for (std::size_t s = 0; s < sites; ++s) {
    std::size_t derived = 0;
    for (const auto& hap : raw_.haplotypes) derived += (hap[s] == '1') ? 1 : 0;
    const bool keep = !options.drop_monomorphic ||
                      (derived > 0 && derived < raw_.haplotypes.size());
    if (keep) {
      site_columns_.push_back(s);
      index_.positions_bp.push_back(raw_positions[s]);
    }
  }
  index_.num_samples = raw_.haplotypes.size();
  index_.locus_length_bp =
      std::max<std::int64_t>(options.locus_length_bp,
                             raw_positions.empty() ? 0 : raw_positions.back());
}

void MsChunkReader::plan(std::vector<SiteRange> ranges) {
  adopt_plan(std::move(ranges), index_.num_sites());
}

std::optional<DatasetChunk> MsChunkReader::next() {
  if (cursor_ >= ranges_.size()) return std::nullopt;
  const SiteRange range = ranges_[cursor_];
  std::vector<std::int64_t> positions(
      index_.positions_bp.begin() + static_cast<std::ptrdiff_t>(range.begin),
      index_.positions_bp.begin() + static_cast<std::ptrdiff_t>(range.end));
  std::vector<std::vector<std::uint8_t>> sites;
  sites.reserve(range.size());
  for (std::size_t s = range.begin; s < range.end; ++s) {
    const std::size_t column = site_columns_[s];
    std::vector<std::uint8_t> alleles(raw_.haplotypes.size());
    for (std::size_t h = 0; h < raw_.haplotypes.size(); ++h) {
      alleles[h] = static_cast<std::uint8_t>(raw_.haplotypes[h][column] - '0');
    }
    sites.push_back(std::move(alleles));
  }
  DatasetChunk chunk{Dataset(std::move(positions), std::move(sites),
                             index_.locus_length_bp),
                     range.begin, cursor_};
  ++cursor_;
  return chunk;
}

}  // namespace omega::io
