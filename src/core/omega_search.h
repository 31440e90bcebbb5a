#pragma once
// The OmegaPlus per-position kernel (pseudo-code in Fig. 6): a nested loop
// over left borders a (outer) and right borders b (inner / "right-side
// loop") evaluating Eq. (2) for every window combination and keeping the
// maximum. All sums come from the DP matrix M:
//
//   LS(a)    = M(c, a)          left within-region sum
//   RS(b)    = M(b, c+1)        right within-region sum
//   TS(a,b)  = M(b, a) - LS - RS   cross-region sum
//
// This module also packs the per-position accelerator buffers (LR, km, TS in
// the paper's Figs. 4-5 and Fig. 8) that the GPU and FPGA backends consume.

#include <cstdint>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"

namespace omega::core {

struct OmegaResult {
  double max_omega = 0.0;
  /// Global SNP indices of the maximizing window borders (valid when
  /// evaluated > 0).
  std::size_t best_a = 0;
  std::size_t best_b = 0;
  std::uint64_t evaluated = 0;
  /// Candidates whose M cells the CPU search loaded. max_omega_search loads
  /// all `evaluated`; the fused bodies skip blocks that cannot win
  /// (core/omega_kernel_body.h). Other backends leave it 0.
  std::uint64_t scored = 0;
};

/// Double-precision CPU evaluation of one grid position. This is the scalar
/// reference loop — the arithmetic every other kernel (vectorized CPU,
/// simulated GPU/FPGA) is validated against. The optimized bodies live in
/// core/omega_kernel_cpu.h.
OmegaResult max_omega_search(const DpMatrix& m, const GridPosition& position);

/// Host-side buffer packing for the accelerator backends, mirroring
/// OmegaPlus-GPU's per-position transfer set:
///   ls[ai]  = LS for a = lo + ai               (left part of buffer "LR")
///   rs[bi]  = RS for b = b_min + bi            (right part of buffer "LR")
///   k[ai]   = C(l,2), m_binom[bi] = C(r,2)     (buffer "km")
///   total[ai * num_right + bi] = M(b, a)       (buffer "TS")
/// Sums are float: the accelerators are single-precision datapaths.
struct PositionBuffers {
  std::size_t num_left = 0;   // count of left borders  (outer loop trip)
  std::size_t num_right = 0;  // count of right borders (inner loop trip)
  std::vector<float> ls;
  std::vector<float> rs;
  std::vector<float> k;        // C(l,2) per left border
  std::vector<float> m_binom;  // C(r,2) per right border
  std::vector<std::uint32_t> l_counts;
  std::vector<std::uint32_t> r_counts;
  std::vector<float> total;    // row-major [num_left x num_right]

  [[nodiscard]] std::uint64_t combinations() const noexcept {
    return static_cast<std::uint64_t>(num_left) * num_right;
  }
};

PositionBuffers pack_position(const DpMatrix& m, const GridPosition& position);

/// Recovers the (a, b) borders of a flat combination index as packed above.
inline void unflatten_combination(const GridPosition& position,
                                  std::size_t num_right, std::uint64_t flat,
                                  std::size_t& a, std::size_t& b) noexcept {
  a = position.lo + static_cast<std::size_t>(flat / num_right);
  b = position.b_min + static_cast<std::size_t>(flat % num_right);
}

}  // namespace omega::core
