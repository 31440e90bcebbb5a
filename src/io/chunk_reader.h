#pragma once
// Streaming chunk readers: yield a whole-genome alignment as a sequence of
// bounded, overlapping site-major Dataset chunks so the scanner never holds
// more than ~two chunks of genotype data resident (docs/STREAMING.md).
//
// Contract shared by every reader:
//   * index() is available from construction: the bp position of every site
//     that survives the reader's monomorphic filter, in global "filtered
//     site" coordinates. The stream planner builds the omega grid from this
//     index, so a streamed scan sees exactly the coordinate space an
//     in-memory load would.
//   * plan() hands the reader the half-open global site ranges it will be
//     asked for, in order. Ranges must advance monotonically (both begins
//     and ends non-decreasing) but may overlap — consecutive scan chunks
//     share the window-overlap region.
//   * next() returns the planned chunks one by one. Chunk Datasets carry
//     global bp positions and the full locus length; `first_site` maps chunk-
//     local site index 0 back to the global index.
//
// The index costs 8 bytes per segregating site; genotype data is the part
// that stays bounded. ms input is the one format that cannot stream below
// one replicate of raw text, because its rows are haplotype-major — see
// MsChunkReader.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/dataset.h"
#include "io/ms_format.h"
#include "io/vcf_lite.h"

namespace omega::io {

/// Global view of the streamed alignment: everything the grid/window planner
/// needs, with no genotype data attached.
struct StreamIndex {
  /// bp positions of the sites the reader will yield (post monomorphic
  /// filter), strictly increasing.
  std::vector<std::int64_t> positions_bp;
  std::size_t num_samples = 0;
  std::int64_t locus_length_bp = 0;
  /// Any yielded site carries a missing call (pairwise-complete r2 applies).
  bool has_missing = false;

  [[nodiscard]] std::size_t num_sites() const noexcept {
    return positions_bp.size();
  }
};

/// Half-open range of global (filtered) site indices.
struct SiteRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  friend bool operator==(const SiteRange&, const SiteRange&) = default;
};

/// One materialized chunk: `dataset` holds sites [first_site,
/// first_site + dataset.num_sites()) of the global filtered alignment.
struct DatasetChunk {
  Dataset dataset;
  std::size_t first_site = 0;
  /// Ordinal of this chunk in the plan.
  std::size_t index = 0;
};

class ChunkReader {
 public:
  virtual ~ChunkReader() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual const StreamIndex& index() const noexcept = 0;

  /// Declares the ranges next() will yield. Throws std::invalid_argument on
  /// out-of-bounds, empty, or non-monotonic ranges. Calling plan() again
  /// rewinds the reader to the start of the new plan.
  virtual void plan(std::vector<SiteRange> ranges) = 0;

  /// Materializes the next planned chunk; std::nullopt once the plan is
  /// exhausted (or if plan() was never called).
  virtual std::optional<DatasetChunk> next() = 0;

 protected:
  /// Shared plan() bookkeeping for implementations: validates `ranges`
  /// against `num_sites` and resets the cursor.
  void adopt_plan(std::vector<SiteRange> ranges, std::size_t num_sites);

  std::vector<SiteRange> ranges_;
  std::size_t cursor_ = 0;
};

/// Adapter that chunks an already-loaded Dataset; the reference implementation
/// every streamed reader is equivalence-tested against, and the fallback used
/// when the input format has no streaming parser.
class DatasetChunkReader final : public ChunkReader {
 public:
  /// `dataset` must outlive the reader and already be filtered (the loaders'
  /// normal monomorphic removal).
  explicit DatasetChunkReader(const Dataset& dataset);

  [[nodiscard]] std::string name() const override { return "dataset"; }
  [[nodiscard]] const StreamIndex& index() const noexcept override {
    return index_;
  }
  void plan(std::vector<SiteRange> ranges) override;
  std::optional<DatasetChunk> next() override;

 private:
  const Dataset& dataset_;
  StreamIndex index_;
};

/// Streams a VCF file in two passes. Construction runs pass 1: parse every
/// record, apply read_vcf's keep rule (VcfRecord::polymorphic), and record
/// only the kept positions — genotype bytes are discarded. plan() reopens the
/// file; next() re-parses forward, keeping at most one chunk plus the overlap
/// carried into the next one, and throws std::runtime_error when a kept
/// record's position or haplotype count differs from pass 1 or the file ends
/// early (the file changed between the passes).
class VcfChunkReader final : public ChunkReader {
 public:
  explicit VcfChunkReader(std::string path);

  [[nodiscard]] std::string name() const override { return "vcf-stream"; }
  [[nodiscard]] const StreamIndex& index() const noexcept override {
    return index_;
  }
  void plan(std::vector<SiteRange> ranges) override;
  std::optional<DatasetChunk> next() override;

  /// Pass-1 record accounting (same shape read_vcf reports).
  [[nodiscard]] const VcfLoadReport& load_report() const noexcept {
    return load_report_;
  }

 private:
  /// Parses forward until `parsed_kept_` > global site index `target`,
  /// appending kept sites' alleles to the buffer and checking each against
  /// the pass-1 index.
  void fill_to(std::size_t target);

  std::string path_;
  StreamIndex index_;
  VcfLoadReport load_report_;

  // Pass-2 state.
  std::unique_ptr<std::ifstream> file_;
  std::unique_ptr<VcfStreamParser> parser_;
  std::deque<std::vector<std::uint8_t>> buffer_;
  std::size_t buffer_first_ = 0;  // global index of buffer_.front()
  std::size_t parsed_kept_ = 0;   // kept sites parsed so far in pass 2
};

/// Streams one ms replicate. ms rows are haplotype-major — every line spans
/// all sites — so the replicate's raw '0'/'1' text (1 byte per allele) stays
/// resident and next() column-slices it into site-major chunks. The memory
/// bound is therefore "one raw replicate + one chunk", not "one chunk"; still
/// far below the in-memory Dataset (1 byte/allele vs. a vector per site plus
/// the scanner's full-alignment SnpMatrix).
class MsChunkReader final : public ChunkReader {
 public:
  /// Loads replicate `replicate` (0-based) from `path`. Throws ParseError on
  /// malformed input, std::runtime_error when the replicate is absent.
  explicit MsChunkReader(const std::string& path, MsReadOptions options = {},
                         std::size_t replicate = 0);

  [[nodiscard]] std::string name() const override { return "ms-stream"; }
  [[nodiscard]] const StreamIndex& index() const noexcept override {
    return index_;
  }
  void plan(std::vector<SiteRange> ranges) override;
  std::optional<DatasetChunk> next() override;

 private:
  StreamIndex index_;
  MsRawReplicate raw_;
  /// Raw column index of each kept (filtered) site.
  std::vector<std::size_t> site_columns_;
};

}  // namespace omega::io
