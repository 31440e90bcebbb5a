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
//   ge                            ordered, quiet compare
//   bits(m)                       lane k of m as bit k
//   gather(p)                     (p[0], p[kWidth], ..., p[(kWidth-1)·kWidth])
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
//
// Skipping blocks that cannot win. Before a pass loads any M cell of a
// block of left borders [a0, a1] and right borders [b0, b1] (view
// coordinates), it bounds every candidate's ω in the block from corner
// reads, and skips the block when that bound is strictly below a value some
// candidate already recorded. Every candidate of the block then scores below
// the final maximum, so none can win or tie it, whichever recorded value was
// the threshold: the pass uses its largest row threshold, which may come
// from a candidate later in b-major order, so the block test is strict and
// never t_r's tie-skip. Each pass tests once per kSuper and once per
// kChunk left borders (block_below), then once per kWidth vector blocks
// (lane k tests one vector's kWidth borders; LS, l, C(l,2) corners from the
// view's block tables, M corners gathered from the pass's first row), and
// once for the scalar tail.
//
// Why the bound holds. The view prunes only when every r² folded into M was
// a finite float with its sign bit clear (DpMatrix::r2_nonnegative). With
// u = 2^-53 and W - 1 bounding b - a over the view:
//  (1) Computed M is monotone: M(b, a) is non-decreasing in b and
//      non-increasing in a, so LS falls with a and RS grows with b. Each row
//      is the row below plus a suffix sum of non-negative terms, and
//      rounding is monotone.
//  (2) Every r² in a cell passes through at most h = 2W roundings (its
//      row's suffix chain, then its column's chain of row adds), so a cell
//      is within γ = h·u/(1 - h·u) of its exact sum, relatively.
//  (3) l, r, C(l,2), C(r,2) are integers below 2^53, l and C(l,2) fall with
//      a and r and C(r,2) grow with b, so l·r and pairs are exact.
// The exact cross sum X = M - LS - RS adds the r² of pairs that straddle
// the split: X >= 0, X falls with a and grows with b, and LS + RS <= M.
// The computed cross = fl(M - fl(LS + RS)) is within e·M(b, a) of X, with
// e = 2γ + 3u. So every candidate of the block has
//   cross(a, b) >= X(a1, b0) - e·M(b1, a0) >= cross(a1, b0) - 2e·M(b1, a0),
// and M(b1, a0) <= M(b_end, lo) <= M'(b_end, lo) / (1 - γ) for the computed
// M' at the view's last right border and first left border. With
// δ = W·2^-49 = 16W·u, the view's cross_margin = fl(δ·M'(b_end, lo)) is at
// least 2e·M(b1, a0) for W <= 2^32, where h·u <= 2^-20;
// OmegaKernelScratch::view does not prune wider views. So once
//   cross_min = fl(cross(a1, b0) - cross_margin)
// is >= 0 (a difference of doubles that underflows is exact, so the exact
// difference is >= 0 too), cross_min / (1 + u) bounds every candidate's
// cross from below. For cross >= 0 the exact quotient
// sum·lr / (pairs·(ε·lr + cross)) grows with sum and lr (lr / (ε·lr + x)
// grows with lr for x >= 0) and falls with pairs and cross, and every body
// rounds it at most five times on the way to ω (the fused form four). With
//   sum_max = fl(LS(a0) + RS(b1)),  lr_max = l(a0)·r(b1),
//   pairs_min = C(l(a1),2) + C(r(b0),2)
// (sum_max by monotone rounding) every candidate has
//   ω <= sum_max·lr_max / (pairs_min·(ε·lr_max + cross_min)) · (1+u)^3/(1-u)^3.
// The test computes P = fl(fl(sum_max·lr_max)·K) with K = 1 + 2^-40 and
// Q = fl(fl(t·pairs_min)·fl(fl(ε·lr_max) + cross_min)); P < Q then gives
// ω < t·(1+u)^7/(K·(1-u)^5) < t. It skips only when cross_min >= 0,
// pairs_min > 0 and P < Q; a NaN fails each compare, so it never skips. A
// block whose sum_max is 0 scores 0 everywhere. No product overflows or
// underflows: cells are at most C(W, 2), l and r at most W, and a positive
// r² is at least 2^-149. The bound never changes a scored candidate, so the
// value and (a, b) are bit for bit those of the exhaustive search.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/omega_config.h"
#include "core/omega_kernel_view.h"

namespace omega::core::detail {
namespace {

/// Right borders per pass. Eight rows spill registers and run slower.
constexpr std::size_t kRowsPerPass = 4;

/// Left borders per coarse block test, and per super-block test above it;
/// multiples of every vector group (kWidth² borders).
constexpr std::size_t kChunk = 64;
constexpr std::size_t kSuper = 4 * kChunk;

/// K of the block test: relative slack over the roundings of the bound.
constexpr double kBoundSlack = 1.0 + 0x1p-40;

/// True when every candidate of the block [a0, a1] × [b0, b1] (view
/// coordinates) scores below t, by the header's bound; false when an input
/// is NaN. The caller checks view.prune.
bool block_below(const OmegaPositionView& v, std::size_t a0, std::size_t a1,
                 std::size_t b0, std::size_t b1, double t) {
  const double eps = OmegaConfig::denominator_offset;
  const double sum_max = v.ls[a0] + v.rs[b1];
  const double lr_max = v.l[a0] * v.r[b1];
  const double pairs_min = v.kl[a1] + v.kr[b0];
  const double cross_min =
      (v.rows[b0][a1] - (v.ls[a1] + v.rs[b0])) - v.cross_margin;
  return cross_min >= 0.0 && pairs_min > 0.0 &&
         sum_max * lr_max * kBoundSlack <
             t * pairs_min * (eps * lr_max + cross_min);
}

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
  std::uint64_t scored = 0;  // candidates whose M cells were loaded
};

/// Scores right borders bi0 .. bi0 + Rows - 1 in one pass over the left
/// slice; row r records into slot r.
template <class T, std::size_t Rows>
void score_pass(const OmegaPositionView& view, std::size_t bi0,
                SearchState<T>& s) {
  using V = typename T::V;
  constexpr std::size_t kWidth = T::kWidth;
  constexpr std::size_t kGroup = kWidth * kWidth;  // borders per group test
  static_assert(kChunk % kGroup == 0);
  const std::size_t n_vec = view.n_left - view.n_left % kWidth;
  const std::size_t bi1 = bi0 + Rows - 1;
  const double eps = OmegaConfig::denominator_offset;
  const V veps = T::set1(eps);
  const V vzero = T::zero();
  const bool groups = view.prune && view.block == kWidth;
  const V vmargin = T::set1(view.cross_margin);
  const V vslack = T::set1(kBoundSlack);

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

  std::size_t super_end = 0;  // one past the super-block c0 lies in
  for (std::size_t c0 = 0; c0 < n_vec; c0 += kChunk) {
    if (view.prune && c0 >= super_end) {
      super_end = c0 + kSuper < n_vec ? c0 + kSuper : n_vec;
      if (super_end - c0 > kChunk &&
          block_below(view, c0, super_end - 1, bi0, bi1, t[Rows - 1])) {
        c0 = super_end - kChunk;
        continue;
      }
    }
    const std::size_t c1 = c0 + kChunk < n_vec ? c0 + kChunk : n_vec;
    if (view.prune && block_below(view, c0, c1 - 1, bi0, bi1, t[Rows - 1])) {
      continue;
    }
    for (std::size_t g0 = c0; g0 < c1; g0 += kGroup) {
      const std::size_t g1 = g0 + kGroup < c1 ? g0 + kGroup : c1;
      // Bit k: vector block k of the group cannot reach t[Rows - 1], by
      // block_below's arithmetic lane by lane.
      unsigned skip = 0;
      if (groups && g1 - g0 == kGroup) {
        const std::size_t k0 = g0 / kWidth;
        const V sum_max = T::add(T::load(view.block_ls0 + k0), vrs[Rows - 1]);
        const V lr_max = T::mul(T::load(view.block_l0 + k0), vr[Rows - 1]);
        const V pairs_min = T::add(T::load(view.block_kl1 + k0), vkr[0]);
        const V cross_min =
            T::sub(T::sub(T::gather(row[0] + g0 + kWidth - 1),
                          T::add(T::load(view.block_ls1 + k0), vrs[0])),
                   vmargin);
        skip = T::bits(T::both(
            T::both(T::ge(cross_min, vzero), T::gt(pairs_min, vzero)),
            T::lt(T::mul(T::mul(sum_max, lr_max), vslack),
                  T::mul(T::mul(T::set1(t[Rows - 1]), pairs_min),
                         T::add(T::mul(veps, lr_max), cross_min)))));
      }
      for (std::size_t ai = g0; ai < g1; ai += kWidth, skip >>= 1) {
        if ((skip & 1u) != 0) continue;
        s.scored += Rows * kWidth;
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
              slot.ai, T::add(T::set1(static_cast<double>(ai)), T::iota()),
              vgt);
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
    }
  }

  double g = t[Rows - 1];
  if (n_vec == view.n_left ||
      (view.prune && block_below(view, n_vec, view.n_left - 1, bi0, bi1, g))) {
    s.g = g;
    return;
  }
  s.scored += Rows * (view.n_left - n_vec);
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
  return OmegaViewBest{best.value, best.ai, best.bi, s.scored};
}

}  // namespace
}  // namespace omega::core::detail
