#pragma once
// The packed LD kernel bodies, written once for any vector width. Each
// per-ISA translation unit (packed_avx2.cpp, packed_avx512.cpp) defines a
// lane-traits type and builds kernel_table<Traits> under its own -m flags
// and -ffp-contract=off, so every rounding step of count->r2 is the one
// written here. Everything below has internal linkage: an ISA-flagged TU
// exports only its entry point and never offers the linker an ISA-encoded
// copy of a shared inline function.
//
// Lane traits T provide, for a vector of kWords u64 words (2·kWords u32 or
// f32 lanes):
//   V, F                      integer and f32 vector types
//   WordTail, LaneTail, FMask partial-vector masks over u64 words and over
//                             32-bit lanes; the f32 compare mask
//   load(p), store(p, v)      unaligned integer vector, any element type
//   word_tail(k)              mask of the first k < kWords words
//   load_words(p, t)          those words, 0 elsewhere; no lane past them is
//                             read
//   lane_tail(k), load_lanes(p, t), store_lanes(p, f, t)
//                             the same over k < 2·kWords 32-bit lanes
//   zero(), broadcast(w)      all-zero vector; w in every u64 word
//   and_, add32, add64        bitwise AND; u32 and u64 lane adds
//   partial(v), add_partial(acc, p), fold(acc)
//                             popcount in two steps: partial counts of one
//                             vector and their running sum, then fold turns
//                             the sum into u64 lane counts. A sum holds the
//                             partial counts of kFoldWords words plus one
//                             more vector.
//   lane_sums(s0, s1, s2, s3, out)  out[k] = sum of s_k's u64 lanes
//   narrow(lo, hi)            u64 lanes (< 2^32) of lo, then hi, as u32
//                             lanes
//   to_float(v)               i32 lanes to f32, exact below 2^24
//   fset1, fsub, fmul, fdiv   f32 arithmetic, each rounded once
//   positive(f)               lanes where !(f <= 0), NaN included
//   above_one(v)              i32 lanes > 1
//   both(a, b), keep(f, m)    mask AND; f where m is set, +0.0f elsewhere
//   fstore(p, f)
//
// Count kernels. Rows are stored at their real width, so the row width
// picks the body. One-word complete rows (up to 64 samples) are contiguous
// words: each A word is broadcast against 2·kWords B words per step. Other
// complete rows run a 1 x 4 register tile over any depth: each A vector is
// loaded once and ANDed with four B rows, whose accumulators are folded and
// reduced to four counts every kFoldWords words (once per A row unless the
// row is deeper). Fused [data | mask] rows count their four
// pairwise-complete streams in one pass per pair, and one-word fused rows
// run popcntq. Every body takes the last words % kWords words as one
// partial vector, in the last fold.
//
// Count->r2 kernels evaluate 2·kWords cells per vector in exactly
// r2_from_counts_f's operation order, with the last count % (2·kWords)
// cells as one partial vector. Where the scalar returns 0 because
// denom <= 0, the lane is cleared; positive() is "not denom <= 0", so a NaN
// denom keeps its NaN exactly as the scalar does.

#include <cstddef>
#include <cstdint>

#include "ld/packed.h"

namespace omega::ld::packed_detail {
namespace {

/// B rows per register tile of the complete-row count kernel.
constexpr std::size_t kTileCols = 4;

/// popcount of one word. The builtin rather than std::popcount: a template
/// instantiated in an ISA-flagged TU is a weak symbol, and the linker may
/// keep that ISA-encoded copy for the baseline code as well.
inline int popcount64(std::uint64_t w) { return __builtin_popcountll(w); }

/// Calls count(w0, w1, last) over a row's `full` words of whole vectors in
/// folds of at most kFoldWords words; the last fold also takes the partial
/// vector.
template <class T, class Count>
void for_each_fold(std::size_t full, Count count) {
  std::size_t w = 0;
  for (; full - w > T::kFoldWords; w += T::kFoldWords) {
    count(w, w + T::kFoldWords, false);
  }
  count(w, full, true);
}

template <class T>
void counts_one_word(const std::uint64_t* a_panel,
                     const std::uint64_t* b_panel, std::size_t m,
                     std::size_t n, std::uint32_t* c, std::size_t ldc) {
  using V = typename T::V;
  constexpr std::size_t kStep = 2 * T::kWords;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t a = a_panel[i];
    const V va = T::broadcast(a);
    std::uint32_t* c_row = c + i * ldc;
    std::size_t j = 0;
    for (; j + kStep <= n; j += kStep) {
      const V lo = T::fold(T::partial(T::and_(va, T::load(b_panel + j))));
      const V hi = T::fold(
          T::partial(T::and_(va, T::load(b_panel + j + T::kWords))));
      T::store(c_row + j, T::add32(T::load(c_row + j), T::narrow(lo, hi)));
    }
    for (; j < n; ++j) {
      c_row[j] += static_cast<std::uint32_t>(popcount64(a & b_panel[j]));
    }
  }
}

template <class T>
void tile_counts(const std::uint64_t* a_panel, const std::uint64_t* b_panel,
                 std::size_t stride_words, std::size_t words, std::size_t m,
                 std::size_t n, std::uint32_t* c, std::size_t ldc) {
  using V = typename T::V;
  if (words == 1 && stride_words == 1) {
    return counts_one_word<T>(a_panel, b_panel, m, n, c, ldc);
  }
  const std::size_t full = words - words % T::kWords;
  const typename T::WordTail tail = T::word_tail(words - full);
  for (std::size_t jb = 0; jb < n; jb += kTileCols) {
    // A tile past column n repeats the last column and drops its counts.
    const std::size_t cols = n - jb < kTileCols ? n - jb : kTileCols;
    const auto column = [&](std::size_t k) {
      return b_panel + (jb + (k < cols ? k : cols - 1)) * stride_words;
    };
    const std::uint64_t* b0 = column(0);
    const std::uint64_t* b1 = column(1);
    const std::uint64_t* b2 = column(2);
    const std::uint64_t* b3 = column(3);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t* a = a_panel + i * stride_words;
      std::uint32_t* cell = c + i * ldc + jb;
      // Adds the counts of words [w0, w1), and of the partial vector when
      // `last`, to the tile's cells.
      const auto count = [&](std::size_t w0, std::size_t w1, bool last) {
        V t0 = T::zero(), t1 = T::zero(), t2 = T::zero(), t3 = T::zero();
        const auto add = [&](V va, V v0, V v1, V v2, V v3) {
          t0 = T::add_partial(t0, T::partial(T::and_(va, v0)));
          t1 = T::add_partial(t1, T::partial(T::and_(va, v1)));
          t2 = T::add_partial(t2, T::partial(T::and_(va, v2)));
          t3 = T::add_partial(t3, T::partial(T::and_(va, v3)));
        };
        for (std::size_t w = w0; w < w1; w += T::kWords) {
          add(T::load(a + w), T::load(b0 + w), T::load(b1 + w),
              T::load(b2 + w), T::load(b3 + w));
        }
        if (last && full < words) {
          add(T::load_words(a + full, tail), T::load_words(b0 + full, tail),
              T::load_words(b1 + full, tail), T::load_words(b2 + full, tail),
              T::load_words(b3 + full, tail));
        }
        std::uint64_t sums[kTileCols];
        T::lane_sums(T::fold(t0), T::fold(t1), T::fold(t2), T::fold(t3),
                     sums);
        for (std::size_t k = 0; k < cols; ++k) {
          cell[k] += static_cast<std::uint32_t>(sums[k]);
        }
      };
      for_each_fold<T>(full, count);
    }
  }
}

void fused_one_word(const std::uint64_t* a_panel,
                    const std::uint64_t* b_panel, std::size_t stride_words,
                    std::size_t mask_offset, std::size_t m, std::size_t n,
                    std::uint32_t* c, std::size_t ldc, std::size_t plane) {
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

template <class T>
void tile_fused(const std::uint64_t* a_panel, const std::uint64_t* b_panel,
                std::size_t stride_words, std::size_t mask_offset,
                std::size_t words, std::size_t m, std::size_t n,
                std::uint32_t* c, std::size_t ldc, std::size_t plane) {
  using V = typename T::V;
  if (words == 1) {
    return fused_one_word(a_panel, b_panel, stride_words, mask_offset, m, n,
                          c, ldc, plane);
  }
  const std::size_t full = words - words % T::kWords;
  const typename T::WordTail tail = T::word_tail(words - full);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* ad = a_panel + i * stride_words;
    const std::uint64_t* am = ad + mask_offset;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* bd = b_panel + j * stride_words;
      const std::uint64_t* bm = bd + mask_offset;
      std::uint32_t* cell = c + i * ldc + j;
      // Adds the four streams' counts of words [w0, w1), and of the partial
      // vector when `last`, to the cell's four planes. Four independent
      // accumulator chains: data.data, data.mask, mask.data, mask.mask.
      const auto count = [&](std::size_t w0, std::size_t w1, bool last) {
        V t0 = T::zero(), t1 = T::zero(), t2 = T::zero(), t3 = T::zero();
        const auto add = [&](V da, V ma, V db, V mb) {
          t0 = T::add_partial(t0, T::partial(T::and_(da, db)));
          t1 = T::add_partial(t1, T::partial(T::and_(da, mb)));
          t2 = T::add_partial(t2, T::partial(T::and_(ma, db)));
          t3 = T::add_partial(t3, T::partial(T::and_(ma, mb)));
        };
        for (std::size_t w = w0; w < w1; w += T::kWords) {
          add(T::load(ad + w), T::load(am + w), T::load(bd + w),
              T::load(bm + w));
        }
        if (last && full < words) {
          add(T::load_words(ad + full, tail), T::load_words(am + full, tail),
              T::load_words(bd + full, tail), T::load_words(bm + full, tail));
        }
        std::uint64_t sums[4];
        T::lane_sums(T::fold(t0), T::fold(t1), T::fold(t2), T::fold(t3),
                     sums);
        cell[0] += static_cast<std::uint32_t>(sums[0]);
        cell[plane] += static_cast<std::uint32_t>(sums[1]);
        cell[2 * plane] += static_cast<std::uint32_t>(sums[2]);
        cell[3 * plane] += static_cast<std::uint32_t>(sums[3]);
      };
      for_each_fold<T>(full, count);
    }
  }
}

template <class T>
void r2_shared(std::int32_t samples, std::int32_t ni, const std::int32_t* nj,
               const std::uint32_t* nij, std::size_t count, float* out) {
  using F = typename T::F;
  if (samples < 2) {  // no pairwise-complete information
    for (std::size_t j = 0; j < count; ++j) out[j] = 0.0f;
    return;
  }
  const float n = static_cast<float>(samples);
  const float pi = static_cast<float>(ni) / n;
  const F vn = T::fset1(n);
  const F vone = T::fset1(1.0f);
  const F vpi = T::fset1(pi);
  const F vvar = T::fset1(pi * (1.0f - pi));
  const auto r2 = [&](F nj_f, F nij_f) {
    const F pj = T::fdiv(nj_f, vn);
    const F pij = T::fdiv(nij_f, vn);
    const F denom = T::fmul(T::fmul(vvar, pj), T::fsub(vone, pj));
    const F d = T::fsub(pij, T::fmul(vpi, pj));
    return T::keep(T::fdiv(T::fmul(d, d), denom), T::positive(denom));
  };
  constexpr std::size_t kLanes = 2 * T::kWords;
  std::size_t j = 0;
  for (; j + kLanes <= count; j += kLanes) {
    T::fstore(out + j, r2(T::to_float(T::load(nj + j)),
                          T::to_float(T::load(nij + j))));
  }
  if (j < count) {
    const typename T::LaneTail tail = T::lane_tail(count - j);
    T::store_lanes(out + j,
                   r2(T::to_float(T::load_lanes(nj + j, tail)),
                      T::to_float(T::load_lanes(nij + j, tail))),
                   tail);
  }
}

template <class T>
void r2_pairwise(const std::uint32_t* nij, const std::uint32_t* ni,
                 const std::uint32_t* nj, const std::uint32_t* n,
                 std::size_t count, float* out) {
  using V = typename T::V;
  using F = typename T::F;
  const F vone = T::fset1(1.0f);
  const auto r2 = [&](V n_i, V ni_i, V nj_i, V nij_i) {
    const F vn = T::to_float(n_i);
    const F pi = T::fdiv(T::to_float(ni_i), vn);
    const F pj = T::fdiv(T::to_float(nj_i), vn);
    const F pij = T::fdiv(T::to_float(nij_i), vn);
    const F denom = T::fmul(T::fmul(T::fmul(pi, T::fsub(vone, pi)), pj),
                            T::fsub(vone, pj));
    const F d = T::fsub(pij, T::fmul(pi, pj));
    // Lanes with fewer than two pairwise-complete samples are 0 as well.
    return T::keep(T::fdiv(T::fmul(d, d), denom),
                   T::both(T::positive(denom), T::above_one(n_i)));
  };
  constexpr std::size_t kLanes = 2 * T::kWords;
  std::size_t k = 0;
  for (; k + kLanes <= count; k += kLanes) {
    T::fstore(out + k, r2(T::load(n + k), T::load(ni + k), T::load(nj + k),
                          T::load(nij + k)));
  }
  if (k < count) {
    const typename T::LaneTail tail = T::lane_tail(count - k);
    T::store_lanes(out + k,
                   r2(T::load_lanes(n + k, tail), T::load_lanes(ni + k, tail),
                      T::load_lanes(nj + k, tail),
                      T::load_lanes(nij + k, tail)),
                   tail);
  }
}

/// The kernel table of one instance.
template <class T>
constexpr PackedKernels kernel_table(const char* isa) {
  return PackedKernels{tile_counts<T>, tile_fused<T>, r2_shared<T>,
                       r2_pairwise<T>, isa};
}

}  // namespace
}  // namespace omega::ld::packed_detail
