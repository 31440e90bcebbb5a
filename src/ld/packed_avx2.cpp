// AVX2 instance of the width-generic packed LD body (packed_body.h): four
// u64 words, eight u32/f32 lanes per vector. Popcount is the vpshufb
// nibble lookup (Mula/Kurz/Lemire lineage), byte counts summed across
// vectors and folded into u64 lanes by vpsadbw. Compiled with per-file
// -mavx2 -ffp-contract=off (src/ld/CMakeLists.txt) and entered only after
// runtime CPUID detection (util/cpu_features.h), so the rest of the binary
// stays runnable on baseline x86-64 hosts.

#include <immintrin.h>

#include "ld/packed_body.h"

namespace omega::ld::packed_detail {
namespace {

struct Avx2Lanes {
  using V = __m256i;
  using F = __m256;
  using WordTail = __m256i;
  using LaneTail = __m256i;
  using FMask = __m256;
  static constexpr std::size_t kWords = 4;
  /// A vector's byte counts are at most 8, so 31 vectors (30 full ones and
  /// the partial one) fit a byte lane.
  static constexpr std::size_t kFoldWords = 30 * kWords;

  static V load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void store(void* p, V v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }
  static WordTail word_tail(std::size_t k) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(k)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static V load_words(const std::uint64_t* p, WordTail t) {
    return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), t);
  }
  static LaneTail lane_tail(std::size_t k) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(k)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load_lanes(const void* p, LaneTail t) {
    return _mm256_maskload_epi32(static_cast<const int*>(p), t);
  }
  static void store_lanes(float* p, F f, LaneTail t) {
    _mm256_maskstore_ps(p, t, f);
  }
  static V zero() { return _mm256_setzero_si256(); }
  static V broadcast(std::uint64_t w) {
    return _mm256_set1_epi64x(static_cast<long long>(w));
  }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V add32(V a, V b) { return _mm256_add_epi32(a, b); }
  static V add64(V a, V b) { return _mm256_add_epi64(a, b); }
  /// Per-byte popcount (each byte 0..8) by nibble lookup.
  static V partial(V v) {
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                         1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
  }
  static V add_partial(V acc, V p) { return _mm256_add_epi8(acc, p); }
  /// Sums each 8-byte group into its u64 lane (vpsadbw).
  static V fold(V acc) { return _mm256_sad_epu8(acc, _mm256_setzero_si256()); }
  static void lane_sums(V s0, V s1, V s2, V s3, std::uint64_t* out) {
    const V s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(s0, s1),
                                   _mm256_unpackhi_epi64(s0, s1));
    const V s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(s2, s3),
                                   _mm256_unpackhi_epi64(s2, s3));
    store(out, _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                                _mm256_permute2x128_si256(s01, s23, 0x31)));
  }
  static V narrow(V lo, V hi) {
    // After or(lo, hi << 32) the u32 lanes hold columns 0 4 1 5 2 6 3 7.
    return _mm256_permutevar8x32_epi32(
        _mm256_or_si256(lo, _mm256_slli_epi64(hi, 32)),
        _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  }
  static F to_float(V v) { return _mm256_cvtepi32_ps(v); }
  static F fset1(float x) { return _mm256_set1_ps(x); }
  static F fsub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F fmul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F fdiv(F a, F b) { return _mm256_div_ps(a, b); }
  static FMask positive(F f) {
    return _mm256_cmp_ps(f, _mm256_setzero_ps(), _CMP_NLE_UQ);
  }
  static FMask above_one(V v) {
    return _mm256_castsi256_ps(_mm256_cmpgt_epi32(v, _mm256_set1_epi32(1)));
  }
  static FMask both(FMask a, FMask b) { return _mm256_and_ps(a, b); }
  static F keep(F f, FMask m) { return _mm256_and_ps(f, m); }
  static void fstore(float* p, F f) { _mm256_storeu_ps(p, f); }
};

}  // namespace

const PackedKernels& avx2_kernels() noexcept {
  static constexpr PackedKernels kernels = kernel_table<Avx2Lanes>("avx2");
  return kernels;
}

}  // namespace omega::ld::packed_detail
