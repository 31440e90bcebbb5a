// AVX2 kernel bodies of the packed LD engine, compiled in their own
// translation unit with per-file -mavx2 (see src/ld/CMakeLists.txt). Nothing
// here is called unless util/cpu_features reports AVX2 at runtime — the same
// per-TU dispatch contract as core/omega_kernel_avx2.cpp. When the compiler
// cannot target AVX2 the TU compiles to nothing and packed.cpp supplies the
// scalar-aliased fallback symbol.
//
// Count kernels. Rows are stored at their real width, so the row width picks
// the body: one-word complete rows broadcast each A word against eight
// contiguous B words, and one-word fused rows run popcntq (which -mavx2
// enables). Every other width ANDs and popcounts a vector at a time
// (Mula/Kurz/Lemire lineage) with a scalar tail for the last 1..3 words:
// vpshufb nibble-LUT gives per-byte counts and vpsadbw folds them into four
// u64 lanes. Complete rows below 64 words per slice use a 1 x 4 register
// tile; deeper ones run a Harley-Seal carry-save adder tree per pair,
// compressing 16 AND-ed vectors per full popcount.
//
// Count->r2 kernels evaluate eight cells per vector in exactly
// r2_from_counts_f's operation order. This TU must stay without -mfma: GCC
// contracts a*b+c (intrinsics included) into an FMA when FMA is enabled, and
// the single rounding of an FMA breaks bit identity with the scalar Eq. (1).

#include "ld/packed.h"

#if defined(OMEGA_LD_HAVE_AVX2_TU)

#include <immintrin.h>

#include <cstdint>

namespace omega::ld::packed_detail {
namespace {

/// u64 words per AVX2 vector.
constexpr std::size_t kVectorWords = 4;
/// Depth (words per slice) from which a pair's popcount runs Harley-Seal.
constexpr std::size_t kHarleySealWords = 64;
/// B rows per register tile of the wide complete-row kernel.
constexpr std::size_t kTileCols = 4;

/// popcount of one word. The builtin rather than std::popcount: a template
/// instantiated in this -mavx2 TU would be a weak symbol, and the linker may
/// keep that popcnt-encoded copy for the baseline code as well.
inline int popcount64(std::uint64_t w) { return __builtin_popcountll(w); }

inline __m256i load_and_with(__m256i a, const std::uint64_t* b) {
  return _mm256_and_si256(
      a, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)));
}

inline __m256i load_and(const std::uint64_t* a, const std::uint64_t* b) {
  return load_and_with(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)), b);
}

/// Per-byte popcount of a 256-bit vector (each byte 0..8): nibble lookup
/// through vpshufb.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Sums each 8-byte group of byte counts into its u64 lane (vpsadbw).
inline __m256i sum_bytes(__m256i bytes) {
  return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

/// Per-64-bit-lane popcount of a 256-bit vector.
inline __m256i popcount256(__m256i v) { return sum_bytes(popcount_bytes(v)); }

/// Carry-save adder: (h, l) = a + b + c as a 2-bit redundant sum per lane.
inline void csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// popcount(a & b) over `words` u64 words. Harley-Seal over 64-word blocks
/// when the depth is there; plain LUT-popcount accumulation otherwise.
std::uint64_t and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  __m256i total = _mm256_setzero_si256();
  std::size_t w = 0;
  if (words >= kHarleySealWords) {
    __m256i ones = _mm256_setzero_si256();
    __m256i twos = _mm256_setzero_si256();
    __m256i fours = _mm256_setzero_si256();
    __m256i eights = _mm256_setzero_si256();
    for (; w + 64 <= words; w += 64) {
      __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
      csa(twos_a, ones, ones, load_and(a + w, b + w),
          load_and(a + w + 4, b + w + 4));
      csa(twos_b, ones, ones, load_and(a + w + 8, b + w + 8),
          load_and(a + w + 12, b + w + 12));
      csa(fours_a, twos, twos, twos_a, twos_b);
      csa(twos_a, ones, ones, load_and(a + w + 16, b + w + 16),
          load_and(a + w + 20, b + w + 20));
      csa(twos_b, ones, ones, load_and(a + w + 24, b + w + 24),
          load_and(a + w + 28, b + w + 28));
      csa(fours_b, twos, twos, twos_a, twos_b);
      csa(eights_a, fours, fours, fours_a, fours_b);
      csa(twos_a, ones, ones, load_and(a + w + 32, b + w + 32),
          load_and(a + w + 36, b + w + 36));
      csa(twos_b, ones, ones, load_and(a + w + 40, b + w + 40),
          load_and(a + w + 44, b + w + 44));
      csa(fours_a, twos, twos, twos_a, twos_b);
      csa(twos_a, ones, ones, load_and(a + w + 48, b + w + 48),
          load_and(a + w + 52, b + w + 52));
      csa(twos_b, ones, ones, load_and(a + w + 56, b + w + 56),
          load_and(a + w + 60, b + w + 60));
      csa(fours_b, twos, twos, twos_a, twos_b);
      csa(eights_b, fours, fours, fours_a, fours_b);
      csa(sixteens, eights, eights, eights_a, eights_b);
      total = _mm256_add_epi64(total, popcount256(sixteens));
    }
    total = _mm256_slli_epi64(total, 4);
    total =
        _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(eights), 3));
    total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(fours), 2));
    total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(twos), 1));
    total = _mm256_add_epi64(total, popcount256(ones));
  }
  for (; w + 4 <= words; w += 4) {
    total = _mm256_add_epi64(total, popcount256(load_and(a + w, b + w)));
  }
  std::uint64_t sum = hsum_epi64(total);
  for (; w < words; ++w) {
    sum += static_cast<std::uint64_t>(popcount64(a[w] & b[w]));
  }
  return sum;
}

/// One-word complete rows (up to 64 samples) are contiguous words, so each A
/// word is broadcast against eight B words per step: two vector popcounts
/// give eight counts in u64 lanes, packed to u32 lanes in column order.
void tile_counts_one_word(const std::uint64_t* a_panel,
                          const std::uint64_t* b_panel, std::size_t m,
                          std::size_t n, std::uint32_t* c, std::size_t ldc) {
  // After or(lo, hi << 32) the u32 lanes hold columns 0 4 1 5 2 6 3 7.
  const __m256i column_order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t a = a_panel[i];
    const __m256i va = _mm256_set1_epi64x(static_cast<long long>(a));
    std::uint32_t* c_row = c + i * ldc;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i lo = popcount256(load_and_with(va, b_panel + j));
      const __m256i hi = popcount256(load_and_with(va, b_panel + j + 4));
      const __m256i counts = _mm256_permutevar8x32_epi32(
          _mm256_or_si256(lo, _mm256_slli_epi64(hi, 32)), column_order);
      __m256i* dst = reinterpret_cast<__m256i*>(c_row + j);
      _mm256_storeu_si256(dst,
                          _mm256_add_epi32(_mm256_loadu_si256(dst), counts));
    }
    for (; j < n; ++j) {
      c_row[j] += static_cast<std::uint32_t>(popcount64(a & b_panel[j]));
    }
  }
}

/// One-word fused rows (up to 64 samples): the four streams by popcntq.
void tile_fused_one_word(const std::uint64_t* a_panel,
                         const std::uint64_t* b_panel,
                         std::size_t stride_words, std::size_t mask_offset,
                         std::size_t m, std::size_t n, std::uint32_t* c,
                         std::size_t ldc, std::size_t plane) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t ad = a_panel[i * stride_words];
    const std::uint64_t am = a_panel[i * stride_words + mask_offset];
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t bd = b_panel[j * stride_words];
      const std::uint64_t bm = b_panel[j * stride_words + mask_offset];
      std::uint32_t* cell = c + i * ldc + j;
      cell[0] += static_cast<std::uint32_t>(popcount64(ad & bd));
      cell[plane] += static_cast<std::uint32_t>(popcount64(ad & bm));
      cell[2 * plane] += static_cast<std::uint32_t>(popcount64(am & bd));
      cell[3 * plane] += static_cast<std::uint32_t>(popcount64(am & bm));
    }
  }
}

/// Rows below the Harley-Seal depth (< 64 words): a 1 x 4 register tile.
/// Each A vector is loaded once and ANDed with four B rows; the four
/// accumulators collect byte counts (at most 15 vectors x 8 per byte, so no
/// byte overflows) and are summed and transposed into four counts once per
/// pair instead of once per vector. The last words % 4 words (all of a row
/// narrower than one vector) run popcntq.
void tile_counts_wide(const std::uint64_t* a_panel,
                      const std::uint64_t* b_panel, std::size_t stride_words,
                      std::size_t words, std::size_t m, std::size_t n,
                      std::uint32_t* c, std::size_t ldc) {
  const std::size_t vector_words = words & ~(kVectorWords - 1);
  std::size_t jb = 0;
  for (; jb + kTileCols <= n; jb += kTileCols) {
    const std::uint64_t* b0 = b_panel + jb * stride_words;
    const std::uint64_t* b1 = b0 + stride_words;
    const std::uint64_t* b2 = b1 + stride_words;
    const std::uint64_t* b3 = b2 + stride_words;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t* a = a_panel + i * stride_words;
      __m256i t0 = _mm256_setzero_si256();
      __m256i t1 = _mm256_setzero_si256();
      __m256i t2 = _mm256_setzero_si256();
      __m256i t3 = _mm256_setzero_si256();
      for (std::size_t w = 0; w < vector_words; w += kVectorWords) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        t0 = _mm256_add_epi8(t0, popcount_bytes(load_and_with(va, b0 + w)));
        t1 = _mm256_add_epi8(t1, popcount_bytes(load_and_with(va, b1 + w)));
        t2 = _mm256_add_epi8(t2, popcount_bytes(load_and_with(va, b2 + w)));
        t3 = _mm256_add_epi8(t3, popcount_bytes(load_and_with(va, b3 + w)));
      }
      // Lane sums of t0..t3 -> [sum t0, sum t1, sum t2, sum t3].
      const __m256i s0 = sum_bytes(t0), s1 = sum_bytes(t1);
      const __m256i s2 = sum_bytes(t2), s3 = sum_bytes(t3);
      const __m256i s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(s0, s1),
                                           _mm256_unpackhi_epi64(s0, s1));
      const __m256i s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(s2, s3),
                                           _mm256_unpackhi_epi64(s2, s3));
      const __m256i sums =
          _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                           _mm256_permute2x128_si256(s01, s23, 0x31));
      alignas(32) std::uint64_t count[kTileCols];
      _mm256_store_si256(reinterpret_cast<__m256i*>(count), sums);
      for (std::size_t w = vector_words; w < words; ++w) {
        count[0] += static_cast<std::uint64_t>(popcount64(a[w] & b0[w]));
        count[1] += static_cast<std::uint64_t>(popcount64(a[w] & b1[w]));
        count[2] += static_cast<std::uint64_t>(popcount64(a[w] & b2[w]));
        count[3] += static_cast<std::uint64_t>(popcount64(a[w] & b3[w]));
      }
      std::uint32_t* cell = c + i * ldc + jb;
      for (std::size_t k = 0; k < kTileCols; ++k) {
        cell[k] += static_cast<std::uint32_t>(count[k]);
      }
    }
  }
  for (; jb < n; ++jb) {
    for (std::size_t i = 0; i < m; ++i) {
      c[i * ldc + jb] += static_cast<std::uint32_t>(and_popcount_avx2(
          a_panel + i * stride_words, b_panel + jb * stride_words, words));
    }
  }
}

void tile_counts_avx2(const std::uint64_t* a_panel,
                      const std::uint64_t* b_panel, std::size_t stride_words,
                      std::size_t words, std::size_t m, std::size_t n,
                      std::uint32_t* c, std::size_t ldc) {
  if (words == 1 && stride_words == 1) {
    return tile_counts_one_word(a_panel, b_panel, m, n, c, ldc);
  }
  if (words < kHarleySealWords) {
    return tile_counts_wide(a_panel, b_panel, stride_words, words, m, n, c,
                            ldc);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* a = a_panel + i * stride_words;
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] += static_cast<std::uint32_t>(
          and_popcount_avx2(a, b_panel + j * stride_words, words));
    }
  }
}

void tile_fused_avx2(const std::uint64_t* a_panel,
                     const std::uint64_t* b_panel, std::size_t stride_words,
                     std::size_t mask_offset, std::size_t words, std::size_t m,
                     std::size_t n, std::uint32_t* c, std::size_t ldc,
                     std::size_t plane) {
  if (words == 1) {
    return tile_fused_one_word(a_panel, b_panel, stride_words, mask_offset, m,
                               n, c, ldc, plane);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* ad = a_panel + i * stride_words;
    const std::uint64_t* am = ad + mask_offset;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* bd = b_panel + j * stride_words;
      const std::uint64_t* bm = bd + mask_offset;
      // One pass, four independent accumulator chains (data.data, data.mask,
      // mask.data, mask.mask) — the ILP here is what makes the fused path
      // beat four separate sweeps even before the memory-traffic win.
      __m256i t11 = _mm256_setzero_si256();
      __m256i tni = _mm256_setzero_si256();
      __m256i tnj = _mm256_setzero_si256();
      __m256i tnn = _mm256_setzero_si256();
      std::size_t w = 0;
      for (; w + kVectorWords <= words; w += kVectorWords) {
        const __m256i da =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ad + w));
        const __m256i ma =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(am + w));
        const __m256i db =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bd + w));
        const __m256i mb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bm + w));
        t11 = _mm256_add_epi64(t11, popcount256(_mm256_and_si256(da, db)));
        tni = _mm256_add_epi64(tni, popcount256(_mm256_and_si256(da, mb)));
        tnj = _mm256_add_epi64(tnj, popcount256(_mm256_and_si256(ma, db)));
        tnn = _mm256_add_epi64(tnn, popcount256(_mm256_and_si256(ma, mb)));
      }
      std::uint64_t n11 = hsum_epi64(t11);
      std::uint64_t ni = hsum_epi64(tni);
      std::uint64_t nj = hsum_epi64(tnj);
      std::uint64_t nn = hsum_epi64(tnn);
      for (; w < words; ++w) {
        n11 += static_cast<std::uint64_t>(popcount64(ad[w] & bd[w]));
        ni += static_cast<std::uint64_t>(popcount64(ad[w] & bm[w]));
        nj += static_cast<std::uint64_t>(popcount64(am[w] & bd[w]));
        nn += static_cast<std::uint64_t>(popcount64(am[w] & bm[w]));
      }
      std::uint32_t* cell = c + i * ldc + j;
      cell[0] += static_cast<std::uint32_t>(n11);
      cell[plane] += static_cast<std::uint32_t>(ni);
      cell[2 * plane] += static_cast<std::uint32_t>(nj);
      cell[3 * plane] += static_cast<std::uint32_t>(nn);
    }
  }
}

/// Eight counts as floats. Counts are far below 2^31, so the signed
/// conversion is exact and equals the scalar static_cast<float>(std::int32_t).
template <typename Count>
inline __m256 load_counts(const Count* counts) {
  static_assert(sizeof(Count) == sizeof(std::int32_t));
  return _mm256_cvtepi32_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts)));
}

// The count->r2 bodies below are r2_from_counts_f lane by lane: the same
// operations, in the same order, each rounded once. Where the scalar returns
// 0 because denom <= 0, the lane is cleared; _CMP_NLE_UQ is "not
// denom <= 0", so a NaN denom would keep its NaN result exactly as the
// scalar does. Tails shorter than a vector go to the scalar bodies.

void r2_shared_avx2(std::int32_t samples, std::int32_t ni,
                    const std::int32_t* nj, const std::uint32_t* nij,
                    std::size_t count, float* out) {
  std::size_t j = 0;
  if (samples >= 2) {
    const float n = static_cast<float>(samples);
    const float pi = static_cast<float>(ni) / n;
    const __m256 vn = _mm256_set1_ps(n);
    const __m256 vone = _mm256_set1_ps(1.0f);
    const __m256 vpi = _mm256_set1_ps(pi);
    const __m256 vvar = _mm256_set1_ps(pi * (1.0f - pi));
    const __m256 vzero = _mm256_setzero_ps();
    for (; j + 8 <= count; j += 8) {
      const __m256 pj = _mm256_div_ps(load_counts(nj + j), vn);
      const __m256 pij = _mm256_div_ps(load_counts(nij + j), vn);
      const __m256 denom = _mm256_mul_ps(_mm256_mul_ps(vvar, pj),
                                         _mm256_sub_ps(vone, pj));
      const __m256 d = _mm256_sub_ps(pij, _mm256_mul_ps(vpi, pj));
      const __m256 r2 = _mm256_div_ps(_mm256_mul_ps(d, d), denom);
      const __m256 keep = _mm256_cmp_ps(denom, vzero, _CMP_NLE_UQ);
      _mm256_storeu_ps(out + j, _mm256_and_ps(r2, keep));
    }
  }
  scalar_kernels().r2_shared(samples, ni, nj + j, nij + j, count - j,
                             out + j);
}

void r2_pairwise_avx2(const std::uint32_t* nij, const std::uint32_t* ni,
                      const std::uint32_t* nj, const std::uint32_t* n,
                      std::size_t count, float* out) {
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256i vone_i = _mm256_set1_epi32(1);
  std::size_t k = 0;
  for (; k + 8 <= count; k += 8) {
    const __m256i n_i =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(n + k));
    const __m256 vn = _mm256_cvtepi32_ps(n_i);
    const __m256 pi = _mm256_div_ps(load_counts(ni + k), vn);
    const __m256 pj = _mm256_div_ps(load_counts(nj + k), vn);
    const __m256 pij = _mm256_div_ps(load_counts(nij + k), vn);
    const __m256 denom = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(pi, _mm256_sub_ps(vone, pi)), pj),
        _mm256_sub_ps(vone, pj));
    const __m256 d = _mm256_sub_ps(pij, _mm256_mul_ps(pi, pj));
    const __m256 r2 = _mm256_div_ps(_mm256_mul_ps(d, d), denom);
    // Lanes with fewer than two pairwise-complete samples are 0 as well.
    const __m256 keep = _mm256_and_ps(
        _mm256_cmp_ps(denom, vzero, _CMP_NLE_UQ),
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(n_i, vone_i)));
    _mm256_storeu_ps(out + k, _mm256_and_ps(r2, keep));
  }
  scalar_kernels().r2_pairwise(nij + k, ni + k, nj + k, n + k, count - k,
                               out + k);
}

}  // namespace

const PackedKernels& avx2_kernels() noexcept {
  static const PackedKernels kernels{tile_counts_avx2, tile_fused_avx2,
                                     r2_shared_avx2, r2_pairwise_avx2,
                                     "avx2"};
  return kernels;
}

}  // namespace omega::ld::packed_detail

#endif  // OMEGA_LD_HAVE_AVX2_TU
