#include "ld/snp_matrix.h"

#include "util/bits.h"

namespace omega::ld {

SnpMatrix::SnpMatrix(const io::Dataset& dataset)
    : sites_(dataset.num_sites()),
      samples_(dataset.num_samples()),
      words_(util::words_for_bits(dataset.num_samples())) {
  data_.assign(sites_ * words_, 0);
  mask_.assign(sites_ * words_, 0);
  derived_.assign(sites_, 0);
  valid_.assign(sites_, 0);
  for (std::size_t s = 0; s < sites_; ++s) {
    std::uint64_t* row_words = data_.data() + s * words_;
    std::uint64_t* mask_words = mask_.data() + s * words_;
    const auto& alleles = dataset.site(s);
    std::int32_t derived = 0;
    std::int32_t valid = 0;
    for (std::size_t h = 0; h < samples_; ++h) {
      const std::uint8_t allele = alleles[h];
      if (allele == io::Dataset::kMissing) {
        has_missing_ = true;
        continue;
      }
      mask_words[h / 64] |= (1ull << (h % 64));
      ++valid;
      if (allele != 0) {
        row_words[h / 64] |= (1ull << (h % 64));
        ++derived;
      }
    }
    derived_[s] = derived;
    valid_[s] = valid;
  }
}

std::int32_t SnpMatrix::pair_count(std::size_t a, std::size_t b) const noexcept {
  // Data bits are pre-masked, so data_a & data_b is already restricted to
  // pairwise-complete samples.
  return static_cast<std::int32_t>(util::and_popcount(row(a), row(b), words_));
}

PairCounts SnpMatrix::pair_counts_complete(std::size_t a,
                                           std::size_t b) const noexcept {
  if (!has_missing_) {
    return {static_cast<std::int32_t>(samples_), derived_[a], derived_[b],
            pair_count(a, b)};
  }
  const std::uint64_t* da = row(a);
  const std::uint64_t* db = row(b);
  const std::uint64_t* ma = mask(a);
  const std::uint64_t* mb = mask(b);
  std::int32_t n = 0, ni = 0, nj = 0, nij = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    n += util::popcount64(ma[w] & mb[w]);
    ni += util::popcount64(da[w] & mb[w]);
    nj += util::popcount64(ma[w] & db[w]);
    nij += util::popcount64(da[w] & db[w]);
  }
  return {n, ni, nj, nij};
}

}  // namespace omega::ld
