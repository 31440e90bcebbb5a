// AVX-512F+VPOPCNTDQ instance of the width-generic packed LD body
// (packed_body.h): eight u64 words, sixteen u32/f32 lanes per vector,
// popcount by vpopcntq straight into u64 lanes, partial vectors and
// compares through k-masks. Compiled with per-file -mavx512f
// -mavx512vpopcntdq -ffp-contract=off (src/ld/CMakeLists.txt) and entered
// only after runtime CPUID detection (util/cpu_features.h), so the rest of
// the binary stays runnable on hosts without AVX-512.

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_*(), a self-initialized
// variable, as the merge source of their unmasked forms, which
// -Wmaybe-uninitialized reports once they are inlined (GCC bug 105593,
// fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "ld/packed_body.h"

namespace omega::ld::packed_detail {
namespace {

struct Avx512Lanes {
  using V = __m512i;
  using F = __m512;
  using WordTail = __mmask8;
  using LaneTail = __mmask16;
  using FMask = __mmask16;
  static constexpr std::size_t kWords = 8;
  /// vpopcntq counts straight into u64 lanes, which never overflow.
  static constexpr std::size_t kFoldWords = ~std::size_t{0};

  static V load(const void* p) { return _mm512_loadu_si512(p); }
  static void store(void* p, V v) { _mm512_storeu_si512(p, v); }
  static WordTail word_tail(std::size_t k) {
    return static_cast<WordTail>((1u << k) - 1u);
  }
  static V load_words(const std::uint64_t* p, WordTail t) {
    return _mm512_maskz_loadu_epi64(t, p);
  }
  static LaneTail lane_tail(std::size_t k) {
    return static_cast<LaneTail>((1u << k) - 1u);
  }
  static V load_lanes(const void* p, LaneTail t) {
    return _mm512_maskz_loadu_epi32(t, p);
  }
  static void store_lanes(float* p, F f, LaneTail t) {
    _mm512_mask_storeu_ps(p, t, f);
  }
  static V zero() { return _mm512_setzero_si512(); }
  static V broadcast(std::uint64_t w) {
    return _mm512_set1_epi64(static_cast<long long>(w));
  }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V add32(V a, V b) { return _mm512_add_epi32(a, b); }
  static V add64(V a, V b) { return _mm512_add_epi64(a, b); }
  static V partial(V v) { return _mm512_popcnt_epi64(v); }
  static V add_partial(V acc, V p) { return _mm512_add_epi64(acc, p); }
  static V fold(V acc) { return acc; }
  static void lane_sums(V s0, V s1, V s2, V s3, std::uint64_t* out) {
    // Each 128-bit lane of s01 holds (s0 pair sum, s1 pair sum).
    const V s01 = _mm512_add_epi64(_mm512_unpacklo_epi64(s0, s1),
                                   _mm512_unpackhi_epi64(s0, s1));
    const V s23 = _mm512_add_epi64(_mm512_unpacklo_epi64(s2, s3),
                                   _mm512_unpackhi_epi64(s2, s3));
    // 128-bit lanes: s01's 0+1 and 2+3, then s23's 0+1 and 2+3.
    const V q = _mm512_add_epi64(
        _mm512_shuffle_i64x2(s01, s23, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_i64x2(s01, s23, _MM_SHUFFLE(3, 1, 3, 1)));
    const __m256i lo = _mm512_castsi512_si256(q);
    const __m256i hi = _mm512_extracti64x4_epi64(q, 1);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out),
        _mm256_add_epi64(_mm256_permute2x128_si256(lo, hi, 0x20),
                         _mm256_permute2x128_si256(lo, hi, 0x31)));
  }
  static V narrow(V lo, V hi) {
    // After or(lo, hi << 32) the u32 lanes hold columns 0 8 1 9 ... 7 15.
    return _mm512_permutexvar_epi32(
        _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13,
                          15),
        _mm512_or_si512(lo, _mm512_slli_epi64(hi, 32)));
  }
  static F to_float(V v) { return _mm512_cvtepi32_ps(v); }
  static F fset1(float x) { return _mm512_set1_ps(x); }
  static F fsub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F fmul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F fdiv(F a, F b) { return _mm512_div_ps(a, b); }
  static FMask positive(F f) {
    return _mm512_cmp_ps_mask(f, _mm512_setzero_ps(), _CMP_NLE_UQ);
  }
  static FMask above_one(V v) {
    return _mm512_cmpgt_epi32_mask(v, _mm512_set1_epi32(1));
  }
  static FMask both(FMask a, FMask b) { return static_cast<FMask>(a & b); }
  static F keep(F f, FMask m) { return _mm512_maskz_mov_ps(m, f); }
  static void fstore(float* p, F f) { _mm512_storeu_ps(p, f); }
};

}  // namespace

const PackedKernels& avx512_kernels() noexcept {
  static constexpr PackedKernels kernels =
      kernel_table<Avx512Lanes>("avx512");
  return kernels;
}

}  // namespace omega::ld::packed_detail
