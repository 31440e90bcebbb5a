#include "ld_reference/engines.h"

#include <vector>

#include "ld/r2.h"
#include "util/bits.h"
#include "util/trace.h"

namespace omega::ld {

namespace {
/// How many j rows ahead the inner popcount loops hint the prefetcher. The
/// word streams are short (samples/64 words), so each pair resolves quickly
/// and a few-row lead keeps the next rows in flight without thrashing L1.
constexpr std::size_t kPrefetchRows = 4;
}  // namespace

void PopcountLd::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                          std::size_t j1, float* out, std::size_t ld) const {
  const util::trace::Span span("ld.popcount.r2_block");
  note_served(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
  if (snps_.has_missing()) {
    // Pairwise-complete counting (4 AND+popcount streams per pair).
    for (std::size_t i = i0; i < i1; ++i) {
      float* row = out + (i - i0) * ld;
      for (std::size_t j = j0; j < j1; ++j) {
        if (j + kPrefetchRows < j1) {
          util::prefetch_read(snps_.row(j + kPrefetchRows));
          util::prefetch_read(snps_.mask(j + kPrefetchRows));
        }
        row[j - j0] = r2_from_counts_f(snps_.pair_counts_complete(i, j));
      }
    }
    return;
  }
  const auto n = static_cast<std::int32_t>(snps_.num_samples());
  for (std::size_t i = i0; i < i1; ++i) {
    float* row = out + (i - i0) * ld;
    const std::int32_t ni = snps_.derived_count(i);
    for (std::size_t j = j0; j < j1; ++j) {
      if (j + kPrefetchRows < j1) {
        util::prefetch_read(snps_.row(j + kPrefetchRows));
      }
      const PairCounts counts{n, ni, snps_.derived_count(j),
                              snps_.pair_count(i, j)};
      row[j - j0] = r2_from_counts_f(counts);
    }
  }
}

void GemmLd::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                      std::size_t j1, float* out, std::size_t ld) const {
  const util::trace::Span span("ld.gemm.r2_block");
  note_served(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
  const std::size_t m = i1 - i0;
  const std::size_t n_cols = j1 - j0;
  if (m == 0 || n_cols == 0) return;
  // Reusable count scratch, kept per thread rather than per engine because
  // multithreaded scans share one engine across workers (member scratch
  // would be a data race). assign() keeps the capacity across calls, so the
  // four m x n buffers the missing-data path needs are heap-allocated once
  // per thread instead of once per call.
  struct Scratch {
    std::vector<std::int32_t> counts, ni, nj, n;
  };
  static thread_local Scratch scratch;
  std::vector<std::int32_t>& counts = scratch.counts;
  counts.assign(m * n_cols, 0);
  pair_count_block_gemm(snps_, i0, i1, j0, j1, counts.data(), n_cols, blocking_);

  if (snps_.has_missing()) {
    // Pairwise-complete counting as three further GEMMs over the Data/Mask
    // operand combinations (the DLA cast extends directly to missing data).
    std::vector<std::int32_t>& ni_pair = scratch.ni;
    std::vector<std::int32_t>& nj_pair = scratch.nj;
    std::vector<std::int32_t>& n_pair = scratch.n;
    ni_pair.assign(m * n_cols, 0);
    nj_pair.assign(m * n_cols, 0);
    n_pair.assign(m * n_cols, 0);
    pair_count_block_gemm(snps_, i0, i1, j0, j1, ni_pair.data(), n_cols,
                          blocking_, PackSource::Data, PackSource::Mask);
    pair_count_block_gemm(snps_, i0, i1, j0, j1, nj_pair.data(), n_cols,
                          blocking_, PackSource::Mask, PackSource::Data);
    pair_count_block_gemm(snps_, i0, i1, j0, j1, n_pair.data(), n_cols,
                          blocking_, PackSource::Mask, PackSource::Mask);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n_cols; ++j) {
        const std::size_t idx = i * n_cols + j;
        const PairCounts pair{n_pair[idx], ni_pair[idx], nj_pair[idx],
                              counts[idx]};
        out[i * ld + j] = r2_from_counts_f(pair);
      }
    }
    return;
  }

  const auto n = static_cast<std::int32_t>(snps_.num_samples());
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t ni = snps_.derived_count(i0 + i);
    for (std::size_t j = 0; j < n_cols; ++j) {
      const PairCounts pair{n, ni, snps_.derived_count(j0 + j),
                            counts[i * n_cols + j]};
      out[i * ld + j] = r2_from_counts_f(pair);
    }
  }
}

}  // namespace omega::ld
