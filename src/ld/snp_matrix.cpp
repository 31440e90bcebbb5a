#include "ld/snp_matrix.h"

#include <bit>
#include <cstring>

#include "util/bits.h"

namespace omega::ld {
namespace {

static_assert(std::endian::native == std::endian::little,
              "allele bytes are gathered from little-endian words");

/// Bit 0 of each byte of `bytes`, gathered into the low byte (byte k to bit
/// k): the multiply moves every byte's bit to its own lane of the top byte
/// without carries.
constexpr std::uint64_t gather_low_bits(std::uint64_t bytes) noexcept {
  return ((bytes & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

}  // namespace

SnpMatrix::SnpMatrix(const io::Dataset& dataset)
    : sites_(dataset.num_sites()),
      samples_(dataset.num_samples()),
      words_(util::words_for_bits(dataset.num_samples())) {
  data_.assign(sites_ * words_, 0);
  mask_.assign(sites_ * words_, 0);
  derived_.assign(sites_, 0);
  valid_.assign(sites_, 0);
  // Alleles are 0, 1 or kMissing = 2 (Dataset::validate), so bit 0 of a byte
  // is the derived call and bit 1 the missing call. Eight bytes per step:
  // data takes the derived bits, mask first collects the missing bits.
  static_assert(io::Dataset::kMissing == 2);
  for (std::size_t s = 0; s < sites_; ++s) {
    std::uint64_t* row_words = data_.data() + s * words_;
    std::uint64_t* mask_words = mask_.data() + s * words_;
    const std::uint8_t* alleles = dataset.site(s).data();
    for (std::size_t h = 0; h < samples_; h += 8) {
      std::uint64_t bytes = 0;
      if (samples_ - h >= 8) {
        std::memcpy(&bytes, alleles + h, 8);
      } else {
        std::memcpy(&bytes, alleles + h, samples_ - h);
      }
      row_words[h / 64] |= gather_low_bits(bytes) << (h % 64);
      mask_words[h / 64] |= gather_low_bits(bytes >> 1) << (h % 64);
    }
    std::int32_t derived = 0;
    std::int32_t valid = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t called =
          w + 1 == words_ ? util::tail_mask(samples_) : ~0ull;
      mask_words[w] = called & ~mask_words[w];
      derived += util::popcount64(row_words[w]);
      valid += util::popcount64(mask_words[w]);
    }
    has_missing_ = has_missing_ || valid != static_cast<std::int32_t>(samples_);
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
