// AVX-512F+FMA instance of the width-generic ω body (omega_kernel_body.h):
// eight f64 lanes per vector, comparisons into k-masks. Compiled with
// per-file -mavx512f -mfma -ffp-contract=off (src/core/CMakeLists.txt) and
// entered only after runtime CPUID detection (util/cpu_features.h), so the
// rest of the binary stays runnable on hosts without AVX-512.

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_pd(), a self-initialized
// variable, as the merge source of their unmasked forms, which
// -Wmaybe-uninitialized reports once they are inlined (GCC bug 105593,
// fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "core/omega_kernel_body.h"

namespace omega::core::detail {
namespace {

struct Avx512Lanes {
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr std::size_t kWidth = 8;

  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V zero() { return _mm512_setzero_pd(); }
  static V iota() {
    return _mm512_set_pd(7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0);
  }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static Mask gt(V a, V b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static Mask lt(V a, V b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static Mask ge(V a, V b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  static Mask both(Mask a, Mask b) {
    return static_cast<Mask>(a & b);
  }
  static bool all(Mask m) { return m == 0xFF; }
  static bool any(Mask m) { return m != 0; }
  static unsigned bits(Mask m) { return m; }
  static V blend(V a, V b, Mask m) {
    return _mm512_mask_blend_pd(m, a, b);
  }
  static V keep(V v, Mask m) { return _mm512_maskz_mov_pd(m, v); }
  static double max_lane(V v) {
    // Swap 256-bit halves, then 128-bit pairs, then neighbours.
    V m = _mm512_max_pd(v, _mm512_shuffle_f64x2(v, v, 0x4E));
    m = _mm512_max_pd(m, _mm512_shuffle_f64x2(m, m, 0xB1));
    m = _mm512_max_pd(m, _mm512_permute_pd(m, 0x55));
    return _mm_cvtsd_f64(_mm512_castpd512_pd128(m));
  }
  static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V gather(const double* p) {
    return _mm512_i32gather_pd(
        _mm256_set_epi32(56, 48, 40, 32, 24, 16, 8, 0), p, 8);
  }
};

}  // namespace

OmegaViewBest omega_search_avx512(const OmegaPositionView& view) {
  return search<Avx512Lanes>(view);
}

}  // namespace omega::core::detail
