// AVX2+FMA omega-kernel bodies. This translation unit is compiled with
// per-file -mavx2 -mfma (see src/core/CMakeLists.txt) and is entered only
// after runtime CPUID detection (util/cpu_features.h), so the rest of the
// binary stays runnable on baseline x86-64 hosts.
//
// Argmax strategy: each of the four fp64 (eight fp32) lanes tracks its own
// running maximum and the (a, b) indices of its *first* strictly-greater
// occurrence, exactly like the scalar reference does over its subsequence.
// Because lanes advance in b-major / a-ascending order, each lane's record
// is the lexicographically smallest occurrence of its lane maximum, and the
// final cross-lane reduce — greatest value, ties to the smallest (b, a) —
// reproduces the reference "first strict maximum in scan order" result
// bit-for-bit. The loop tail is handled by a scalar carbon copy whose
// candidate joins the same reduce.
//
// Skipping vectors that cannot win (fp64 body): g is the best value any lane
// or the tail has recorded so far. When every lane of a vector has den > 0
// and num < fl(g * den), then num < g * den exactly (under round-to-nearest
// num is at most the float below fl(g * den), which lies below g * den; this
// holds on overflow to +inf and for subnormals too), so num / den < g and
// fl(num / den) <= g: no lane can beat g, and none can win a tie at g either,
// because the candidate that set g comes earlier in b-major order. Such a
// vector skips its divide and blend; every other vector runs them exactly as
// before, so results are unchanged bit for bit.

#include "core/omega_kernel_cpu.h"

#if defined(OMEGA_HAVE_AVX2_TU)

#include <immintrin.h>

#include "core/omega_math.h"

namespace omega::core::detail {
namespace {

/// Lex-(b, a) candidate reduce shared by the final combines. A value of 0
/// never displaces anything (the reference only records strictly positive
/// improvements over its zero init).
struct BestCandidate {
  double value = 0.0;
  std::size_t a = 0;
  std::size_t b = 0;

  void consider(double v, std::size_t av, std::size_t bv) noexcept {
    const bool better =
        v > value ||
        (v > 0.0 && v == value && (bv < b || (bv == b && av < a)));
    if (better) {
      value = v;
      a = av;
      b = bv;
    }
  }
};

}  // namespace

OmegaResult omega_search_avx2_f64(const DpMatrix& m,
                                  const GridPosition& position,
                                  std::size_t b_begin, std::size_t b_end,
                                  const OmegaKernelScratch& scratch) {
  OmegaResult result;
  const std::size_t c = position.c;
  const std::size_t n_left = position.a_max - position.lo + 1;
  const std::size_t n4 = n_left & ~static_cast<std::size_t>(3);
  const double eps = OmegaConfig::denominator_offset;

  const double* ls = scratch.ls.data();
  const double* kl = scratch.kl.data();
  const double* l_d = scratch.l_d.data();

  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d viota = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  __m256d vbest = vzero;
  __m256d vbest_a = vzero;  // ai as double (exact below 2^53)
  __m256d vbest_b = vzero;  // global b as double

  double tail_best = 0.0;
  std::size_t tail_a = 0, tail_b = 0;

  double g = 0.0;  // best value recorded by any lane or the tail so far
  __m256d vg = vzero;

  for (std::size_t b = b_begin; b <= b_end; ++b) {
    const double rs = m.at_fast(b, c + 1);
    const double r_d = static_cast<double>(b - c);
    const double kr = choose2(b - c);
    const double* row_b = m.row_data(b) + (position.lo - m.base());

    const __m256d vrs = _mm256_set1_pd(rs);
    const __m256d vr = _mm256_set1_pd(r_d);
    const __m256d vkr = _mm256_set1_pd(kr);
    const __m256d vb = _mm256_set1_pd(static_cast<double>(b));

    for (std::size_t ai = 0; ai < n4; ai += 4) {
      const __m256d vls = _mm256_loadu_pd(ls + ai);
      const __m256d vkl = _mm256_loadu_pd(kl + ai);
      const __m256d vl = _mm256_loadu_pd(l_d + ai);
      const __m256d vtotal = _mm256_loadu_pd(row_b + ai);

      const __m256d vlr = _mm256_mul_pd(vl, vr);
      const __m256d vsum = _mm256_add_pd(vls, vrs);
      const __m256d vcross = _mm256_sub_pd(vtotal, vsum);
      const __m256d vpairs = _mm256_add_pd(vkl, vkr);
      const __m256d vnum = _mm256_mul_pd(vsum, vlr);
      const __m256d vden =
          _mm256_mul_pd(vpairs, _mm256_fmadd_pd(veps, vlr, vcross));
      const __m256d vcannot_win =
          _mm256_and_pd(_mm256_cmp_pd(vden, vzero, _CMP_GT_OQ),
                        _mm256_cmp_pd(vnum, _mm256_mul_pd(vg, vden),
                                      _CMP_LT_OQ));
      if (_mm256_movemask_pd(vcannot_win) == 0xF) continue;
      __m256d vomega = _mm256_div_pd(vnum, vden);
      // Degenerate l == r == 1 windows (pairs == 0) score 0; the AND also
      // clears any NaN bits those lanes produced.
      const __m256d vvalid = _mm256_cmp_pd(vpairs, vzero, _CMP_GT_OQ);
      vomega = _mm256_and_pd(vomega, vvalid);

      const __m256d vgt = _mm256_cmp_pd(vomega, vbest, _CMP_GT_OQ);
      if (_mm256_movemask_pd(vgt) != 0) {
        const __m256d va =
            _mm256_add_pd(_mm256_set1_pd(static_cast<double>(ai)), viota);
        vbest = _mm256_blendv_pd(vbest, vomega, vgt);
        vbest_a = _mm256_blendv_pd(vbest_a, va, vgt);
        vbest_b = _mm256_blendv_pd(vbest_b, vb, vgt);
        const __m128d half = _mm_max_pd(_mm256_castpd256_pd128(vbest),
                                        _mm256_extractf128_pd(vbest, 1));
        const double lane_max =
            _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
        if (lane_max > g) {
          g = lane_max;
          vg = _mm256_set1_pd(g);
        }
      }
    }

    for (std::size_t ai = n4; ai < n_left; ++ai) {
      const double lr = l_d[ai] * r_d;
      const double sum = ls[ai] + rs;
      const double cross = row_b[ai] - sum;
      const double pairs = kl[ai] + kr;
      const double w =
          pairs > 0.0 ? (sum * lr) / (pairs * (eps * lr + cross)) : 0.0;
      if (w > tail_best) {
        tail_best = w;
        tail_a = ai;
        tail_b = b;
        if (w > g) {
          g = w;
          vg = _mm256_set1_pd(g);
        }
      }
    }
  }

  result.evaluated =
      static_cast<std::uint64_t>(b_end - b_begin + 1) * n_left;

  double vals[4], avals[4], bvals[4];
  _mm256_storeu_pd(vals, vbest);
  _mm256_storeu_pd(avals, vbest_a);
  _mm256_storeu_pd(bvals, vbest_b);
  BestCandidate best;
  for (int lane = 0; lane < 4; ++lane) {
    best.consider(vals[lane],
                  position.lo + static_cast<std::size_t>(avals[lane]),
                  static_cast<std::size_t>(bvals[lane]));
  }
  best.consider(tail_best, position.lo + tail_a, tail_b);

  result.max_omega = best.value;
  if (best.value > 0.0) {
    result.best_a = best.a;
    result.best_b = best.b;
  }
  return result;
}

OmegaResult omega_search_avx2_f32(const PositionBuffers& buffers,
                                  const GridPosition& position,
                                  const std::vector<float>& r_f) {
  OmegaResult result;
  const std::size_t nl = buffers.num_left;
  const std::size_t nr = buffers.num_right;
  const std::size_t n8 = nr & ~static_cast<std::size_t>(7);
  const float eps = static_cast<float>(OmegaConfig::denominator_offset);

  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 viota =
      _mm256_set_ps(7.0f, 6.0f, 5.0f, 4.0f, 3.0f, 2.0f, 1.0f, 0.0f);
  __m256 vbest = vzero;
  __m256 vbest_ai = vzero;
  __m256 vbest_bi = vzero;

  float tail_best = 0.0f;
  std::size_t tail_ai = 0, tail_bi = 0;

  for (std::size_t ai = 0; ai < nl; ++ai) {
    const float lsa = buffers.ls[ai];
    const float ka = buffers.k[ai];
    const float lf = static_cast<float>(buffers.l_counts[ai]);
    const float* trow = buffers.total.data() + ai * nr;

    const __m256 vls = _mm256_set1_ps(lsa);
    const __m256 vka = _mm256_set1_ps(ka);
    const __m256 vlf = _mm256_set1_ps(lf);
    const __m256 vai = _mm256_set1_ps(static_cast<float>(ai));

    for (std::size_t bi = 0; bi < n8; bi += 8) {
      const __m256 vrs = _mm256_loadu_ps(buffers.rs.data() + bi);
      const __m256 vmb = _mm256_loadu_ps(buffers.m_binom.data() + bi);
      const __m256 vrf = _mm256_loadu_ps(r_f.data() + bi);
      const __m256 vtot = _mm256_loadu_ps(trow + bi);

      // Exact op-for-op transcription of omega_from_sums_f — three divides,
      // no FMA contraction — so every lane matches the scalar GPU/FPGA
      // reference arithmetic bit-for-bit.
      const __m256 vwithin = _mm256_add_ps(vls, vrs);
      const __m256 vpairs = _mm256_add_ps(vka, vmb);
      const __m256 vcross = _mm256_sub_ps(vtot, vwithin);
      const __m256 vlr = _mm256_mul_ps(vlf, vrf);
      const __m256 vnum = _mm256_div_ps(vwithin, vpairs);
      const __m256 vden = _mm256_add_ps(_mm256_div_ps(vcross, vlr), veps);
      __m256 vomega = _mm256_div_ps(vnum, vden);
      const __m256 vvalid = _mm256_cmp_ps(vpairs, vzero, _CMP_GT_OQ);
      vomega = _mm256_and_ps(vomega, vvalid);

      const __m256 vgt = _mm256_cmp_ps(vomega, vbest, _CMP_GT_OQ);
      if (_mm256_movemask_ps(vgt) != 0) {
        const __m256 vbidx =
            _mm256_add_ps(_mm256_set1_ps(static_cast<float>(bi)), viota);
        vbest = _mm256_blendv_ps(vbest, vomega, vgt);
        vbest_ai = _mm256_blendv_ps(vbest_ai, vai, vgt);
        vbest_bi = _mm256_blendv_ps(vbest_bi, vbidx, vgt);
      }
    }

    for (std::size_t bi = n8; bi < nr; ++bi) {
      const float within = lsa + buffers.rs[bi];
      const float w =
          omega_from_sums_f(lsa, buffers.rs[bi], trow[bi] - within,
                            buffers.l_counts[ai], buffers.r_counts[bi]);
      if (w > tail_best) {
        tail_best = w;
        tail_ai = ai;
        tail_bi = bi;
      }
    }
  }

  result.evaluated = static_cast<std::uint64_t>(nl) * nr;

  float vals[8], aivals[8], bivals[8];
  _mm256_storeu_ps(vals, vbest);
  _mm256_storeu_ps(aivals, vbest_ai);
  _mm256_storeu_ps(bivals, vbest_bi);
  // Scan order here is ai-major, so the tie-break key is (a, b) — mirror it
  // by feeding BestCandidate swapped (its lex key is (b, a)).
  BestCandidate best;
  for (int lane = 0; lane < 8; ++lane) {
    best.consider(static_cast<double>(vals[lane]),
                  static_cast<std::size_t>(bivals[lane]),
                  static_cast<std::size_t>(aivals[lane]));
  }
  best.consider(static_cast<double>(tail_best), tail_bi, tail_ai);

  result.max_omega = best.value;
  if (best.value > 0.0) {
    result.best_a = position.lo + best.b;   // .b holds ai (swapped key)
    result.best_b = position.b_min + best.a;  // .a holds bi
  }
  return result;
}

}  // namespace omega::core::detail

#endif  // OMEGA_HAVE_AVX2_TU
