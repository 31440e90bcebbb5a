// AVX2+FMA instance of the width-generic ω body (omega_kernel_body.h): four
// f64 lanes per vector. Compiled with per-file -mavx2 -mfma
// -ffp-contract=off (src/core/CMakeLists.txt) and entered only after
// runtime CPUID detection (util/cpu_features.h), so the rest of the binary
// stays runnable on baseline x86-64 hosts.

#include <immintrin.h>

#include "core/omega_kernel_body.h"

namespace omega::core::detail {
namespace {

struct Avx2Lanes {
  using V = __m256d;
  using Mask = __m256d;
  static constexpr std::size_t kWidth = 4;

  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V zero() { return _mm256_setzero_pd(); }
  static V iota() { return _mm256_set_pd(3.0, 2.0, 1.0, 0.0); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static Mask gt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static Mask lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Mask ge(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static Mask both(Mask a, Mask b) { return _mm256_and_pd(a, b); }
  static bool all(Mask m) { return _mm256_movemask_pd(m) == 0xF; }
  static bool any(Mask m) { return _mm256_movemask_pd(m) != 0; }
  static unsigned bits(Mask m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static V blend(V a, V b, Mask m) { return _mm256_blendv_pd(a, b, m); }
  static V keep(V v, Mask m) { return _mm256_and_pd(v, m); }
  static double max_lane(V v) {
    const __m128d half =
        _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
  }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V gather(const double* p) {
    // The masked form: the unmasked one merges into _mm256_undefined_pd(),
    // which GCC 12 reports as maybe-uninitialized (GCC bug 105593).
    return _mm256_mask_i32gather_pd(
        zero(), p, _mm_set_epi32(12, 8, 4, 0),
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
  }
};

}  // namespace

OmegaViewBest omega_search_avx2(const OmegaPositionView& view) {
  return search<Avx2Lanes>(view);
}

}  // namespace omega::core::detail
