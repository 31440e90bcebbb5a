#pragma once
// The fused f64 ω body, written once for any vector width. Each per-ISA
// translation unit (omega_kernel_avx2.cpp, omega_kernel_avx512.cpp) defines
// a lane-traits type and instantiates search<Traits> under its own -m flags
// and -ffp-contract=off, so every rounding step is the one written here.
// Everything below has internal linkage: an ISA-flagged TU exports only its
// entry point and never offers the linker an ISA-encoded copy of a shared
// inline function.
//
// Lane traits T provide, for kWidth f64 lanes:
//   V, Mask                       vector and comparison-mask types
//   load, set1, zero, iota        iota = (0, 1, ..., kWidth - 1)
//   add, sub, mul, div, fmadd     fmadd(a, b, c) = a·b + c, rounded once
//   gt, lt                        ordered, quiet compares
//   both, all, any                mask AND, all lanes set, any lane set
//   blend(a, b, m)                b where m is set, a elsewhere
//   keep(v, m)                    v where m is set, +0.0 elsewhere
//   max_lane(v)                   greatest lane (v never holds NaN)
//   store(p, v)
//
// Candidate arithmetic, identical in every lane and in the scalar tail:
//   lr = l·r, sum = LS + RS, cross = M(b, a) − sum, pairs = C(l,2) + C(r,2),
//   num = sum·lr, den = pairs·fma(ε, lr, cross), ω = num / den,
// and ω = 0 where pairs == 0 (the degenerate l == r == 1 window).
//
// Four right borders per pass. One pass over the left slice scores four
// consecutive right borders: LS, C(l,2) and l are loaded once per lane step
// and shared by the four rows, the way the paper's accelerators unroll the
// right-border loop over one left-side column.
//
// Argmax. Row slot r (0..3) keeps its own lane accumulators and sees only
// the rows b0 + r of successive passes, so each lane records the first
// strict maximum of its candidates in b-major, a-ascending order. The final
// reduce keeps the greatest value, ties to the smallest (b, a), which is
// the reference's "first strict maximum in scan order". The scalar tail
// (ai past the last full vector) runs after the pass's vector part, rows in
// order, into one more accumulator that joins the same reduce.
//
// Skipping vectors that cannot win. Row r's threshold t_r is the best value
// recorded by candidates that precede row r's next vector in b-major order:
// everything from earlier passes, and rows 0..r of this pass. When every
// lane has den > 0 and num < fl(t_r·den), then num < t_r·den exactly (under
// round-to-nearest num is at most the float below fl(t_r·den), which lies
// below t_r·den; this holds on overflow to +inf and for subnormals too), so
// fl(num/den) ≤ t_r: no lane can beat t_r, and a tie at t_r loses to the
// earlier candidate that set it. Such a vector skips its divide and blend.
// A record in row r therefore raises t_r .. t_3 but never t_0 .. t_{r-1}:
// a later row's candidate comes after an earlier row's in b-major order,
// and its record could make an earlier candidate that ties it skip the win
// it is owed.

#include <cmath>
#include <cstddef>

#include "core/omega_config.h"
#include "core/omega_kernel_view.h"

namespace omega::core::detail {
namespace {

/// Right borders per pass. Eight rows spill registers and run slower.
constexpr std::size_t kRowsPerPass = 4;

/// Lex-(b, a) candidate reduce. A value of 0 never displaces anything (the
/// reference only records strictly positive improvements over its zero
/// init).
struct BestCandidate {
  double value = 0.0;
  std::size_t ai = 0;
  std::size_t bi = 0;

  void consider(double v, std::size_t a, std::size_t b) {
    const bool better =
        v > value ||
        (v > 0.0 && v == value && (b < bi || (b == bi && a < ai)));
    if (better) {
      value = v;
      ai = a;
      bi = b;
    }
  }
};

/// One row slot's lane accumulators: lane k holds its best ω and the view
/// coordinates (ai, bi) of that record as doubles (exact below 2^53).
template <class T>
struct RowSlot {
  typename T::V best = T::zero();
  typename T::V ai = T::zero();
  typename T::V bi = T::zero();
};

template <class T>
struct SearchState {
  RowSlot<T> slots[kRowsPerPass];
  BestCandidate tail;  // first strict maximum of the scalar tails
  double g = 0.0;      // best ω recorded by every candidate scored so far
};

/// Scores right borders bi0 .. bi0 + Rows - 1 in one pass over the left
/// slice; row r records into slot r.
template <class T, std::size_t Rows>
void score_pass(const OmegaPositionView& view, std::size_t bi0,
                SearchState<T>& s) {
  using V = typename T::V;
  constexpr std::size_t kWidth = T::kWidth;
  const std::size_t n_vec = view.n_left - view.n_left % kWidth;
  const double eps = OmegaConfig::denominator_offset;
  const V veps = T::set1(eps);
  const V vzero = T::zero();

  const double* row[Rows];
  V vrs[Rows], vr[Rows], vkr[Rows], vbi[Rows], vt[Rows];
  double t[Rows];  // t[r] is row r's skip threshold, non-decreasing in r
  for (std::size_t r = 0; r < Rows; ++r) {
    row[r] = view.rows[bi0 + r];
    vrs[r] = T::set1(view.rs[bi0 + r]);
    vr[r] = T::set1(view.r[bi0 + r]);
    vkr[r] = T::set1(view.kr[bi0 + r]);
    vbi[r] = T::set1(static_cast<double>(bi0 + r));
    t[r] = s.g;
    vt[r] = T::set1(s.g);
  }

  for (std::size_t ai = 0; ai < n_vec; ai += kWidth) {
    const V vls = T::load(view.ls + ai);
    const V vkl = T::load(view.kl + ai);
    const V vl = T::load(view.l + ai);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < Rows; ++r) {
      const V vlr = T::mul(vl, vr[r]);
      const V vsum = T::add(vls, vrs[r]);
      const V vcross = T::sub(T::load(row[r] + ai), vsum);
      const V vpairs = T::add(vkl, vkr[r]);
      const V vnum = T::mul(vsum, vlr);
      const V vden = T::mul(vpairs, T::fmadd(veps, vlr, vcross));
      if (T::all(T::both(T::gt(vden, vzero),
                         T::lt(vnum, T::mul(vt[r], vden))))) {
        continue;
      }
      // Degenerate windows (pairs == 0) score 0; keep() also clears any
      // NaN those lanes produced.
      const V vomega = T::keep(T::div(vnum, vden), T::gt(vpairs, vzero));
      RowSlot<T>& slot = s.slots[r];
      const typename T::Mask vgt = T::gt(vomega, slot.best);
      if (!T::any(vgt)) continue;
      slot.best = T::blend(slot.best, vomega, vgt);
      slot.ai = T::blend(
          slot.ai, T::add(T::set1(static_cast<double>(ai)), T::iota()), vgt);
      slot.bi = T::blend(slot.bi, vbi[r], vgt);
      const double lane_max = T::max_lane(slot.best);
      for (std::size_t q = r; q < Rows; ++q) {  // never rows before r
        if (lane_max > t[q]) {
          t[q] = lane_max;
          vt[q] = T::set1(lane_max);
        }
      }
    }
  }

  double g = t[Rows - 1];
  for (std::size_t r = 0; r < Rows; ++r) {
    const double rs = view.rs[bi0 + r];
    const double r_d = view.r[bi0 + r];
    const double kr = view.kr[bi0 + r];
    for (std::size_t ai = n_vec; ai < view.n_left; ++ai) {
      const double lr = view.l[ai] * r_d;
      const double sum = view.ls[ai] + rs;
      const double cross = row[r][ai] - sum;
      const double pairs = view.kl[ai] + kr;
      const double w =
          pairs > 0.0 ? (sum * lr) / (pairs * std::fma(eps, lr, cross)) : 0.0;
      if (w > s.tail.value) {
        s.tail.value = w;
        s.tail.ai = ai;
        s.tail.bi = bi0 + r;
        if (w > g) g = w;
      }
    }
  }
  s.g = g;
}

template <class T>
OmegaViewBest search(const OmegaPositionView& view) {
  SearchState<T> s;
  std::size_t bi = 0;
  for (; bi + kRowsPerPass <= view.n_right; bi += kRowsPerPass) {
    score_pass<T, kRowsPerPass>(view, bi, s);
  }
  for (; bi < view.n_right; ++bi) score_pass<T, 1>(view, bi, s);

  BestCandidate best;
  for (const RowSlot<T>& slot : s.slots) {
    double value[T::kWidth], ai[T::kWidth], bi_lane[T::kWidth];
    T::store(value, slot.best);
    T::store(ai, slot.ai);
    T::store(bi_lane, slot.bi);
    for (std::size_t lane = 0; lane < T::kWidth; ++lane) {
      best.consider(value[lane], static_cast<std::size_t>(ai[lane]),
                    static_cast<std::size_t>(bi_lane[lane]));
    }
  }
  best.consider(s.tail.value, s.tail.ai, s.tail.bi);
  return OmegaViewBest{best.value, best.ai, best.bi};
}

}  // namespace
}  // namespace omega::core::detail
