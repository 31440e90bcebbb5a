#pragma once
// Bit-packed, site-major SNP matrix: row s is the derived-allele indicator
// vector of SNP s across samples, packed 64 samples per word. This is the
// representation the LD engines operate on; pairwise co-occurrence counts
// reduce to AND+popcount over rows (Alachiotis, Popovici & Low 2016 cast the
// same counts as dense linear algebra — see GemmLd).
//
// Missing data: each site additionally carries a validity mask (bit set =
// called sample). Data bits are stored pre-masked (missing => 0), so for
// complete datasets the mask machinery costs nothing; with missing calls the
// engines switch to pairwise-complete counts (OmegaPlus's policy):
//
//   n    = popcount(mask_i & mask_j)
//   n_i  = popcount(data_i & mask_j)
//   n_j  = popcount(mask_i & data_j)
//   n_ij = popcount(data_i & data_j)

#include <cstdint>
#include <vector>

#include "io/dataset.h"
#include "ld/r2.h"

namespace omega::ld {

class SnpMatrix {
 public:
  SnpMatrix() = default;
  explicit SnpMatrix(const io::Dataset& dataset);

  [[nodiscard]] std::size_t num_sites() const noexcept { return sites_; }
  [[nodiscard]] std::size_t num_samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t words_per_site() const noexcept { return words_; }
  /// True when any site has missing calls (engines pick the pairwise-complete
  /// path).
  [[nodiscard]] bool has_missing() const noexcept { return has_missing_; }

  /// Packed words of one site's (pre-masked) indicator vector.
  [[nodiscard]] const std::uint64_t* row(std::size_t site) const noexcept {
    return data_.data() + site * words_;
  }
  /// Packed validity mask of one site (all-ones when nothing is missing).
  [[nodiscard]] const std::uint64_t* mask(std::size_t site) const noexcept {
    return mask_.data() + site * words_;
  }

  /// Cached derived-allele count of a site (over its valid samples).
  [[nodiscard]] std::int32_t derived_count(std::size_t site) const noexcept {
    return derived_[site];
  }
  /// All sites' derived counts, site s at index s.
  [[nodiscard]] const std::int32_t* derived_counts() const noexcept {
    return derived_.data();
  }
  /// Cached valid-call count of a site.
  [[nodiscard]] std::int32_t valid_count(std::size_t site) const noexcept {
    return valid_[site];
  }

  /// Co-occurrence count n11 over pairwise-complete samples.
  [[nodiscard]] std::int32_t pair_count(std::size_t a, std::size_t b) const noexcept;

  /// Full pairwise-complete count set for Eq. (1) with missing data.
  [[nodiscard]] PairCounts pair_counts_complete(std::size_t a,
                                                std::size_t b) const noexcept;

  /// Unpacks one site into a 0/1 byte vector (GEMM packing path); missing
  /// samples unpack as 0 (they are pre-masked).
  void unpack_row(std::size_t site, std::uint8_t* out) const noexcept;
  /// Unpacks one site's validity mask into a 0/1 byte vector.
  void unpack_mask(std::size_t site, std::uint8_t* out) const noexcept;

  /// Memory footprint in bytes (packed words + count caches).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  std::size_t sites_ = 0;
  std::size_t samples_ = 0;
  std::size_t words_ = 0;
  bool has_missing_ = false;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::int32_t> derived_;
  std::vector<std::int32_t> valid_;
};

}  // namespace omega::ld
