#pragma once
// The per-position view the fused ω bodies read: one grid position's
// coefficient tables and the rows of M for a range of right borders, with M
// already resolved to raw pointers. OmegaKernelScratch::view fills it in the
// baseline translation unit; the per-ISA bodies (omega_kernel_body.h) read
// only this, so a TU built with -mavx2 or -mavx512f needs no DpMatrix code
// and exports nothing but its entry point.

#include <cstddef>
#include <cstdint>

namespace omega::core {

/// Left side indexed by ai = a - lo, right side by bi = b - b_begin.
struct OmegaPositionView {
  const double* ls = nullptr;  // LS(a) = M(c, a)
  const double* kl = nullptr;  // C(l, 2)
  const double* l = nullptr;   // l as double
  std::size_t n_left = 0;

  const double* const* rows = nullptr;  // rows[bi][ai] = M(b, a)
  const double* rs = nullptr;           // RS(b) = M(b, c + 1)
  const double* kr = nullptr;           // C(r, 2)
  const double* r = nullptr;            // r as double
  std::size_t n_right = 0;

  // Block pruning (omega_kernel_body.h). OmegaKernelScratch::view sets
  // prune when M is monotone (DpMatrix::r2_nonnegative); a view built by
  // hand leaves it clear and is searched exhaustively.
  bool prune = false;
  /// Subtracted from each block's corner cross sum: δ·M(b_end, lo), with
  /// δ = W·2^-49 for cells spanning W sites.
  double cross_margin = 0.0;
  /// Borders per corner-table block (the lane count of the body the view
  /// was built for; 0 when there are no tables). Block k covers borders
  /// [k·block, k·block + block - 1].
  std::size_t block = 0;
  const double* block_ls0 = nullptr;  // LS at each block's first border
  const double* block_l0 = nullptr;   // l at its first border
  const double* block_kl1 = nullptr;  // C(l, 2) at its last border
  const double* block_ls1 = nullptr;  // LS at its last border
};

/// The winning candidate of a view in view coordinates: the greatest ω,
/// ties to the smallest (bi, ai). value == 0 means no candidate scored
/// above zero, and ai/bi are then 0.
struct OmegaViewBest {
  double value;
  std::size_t ai;
  std::size_t bi;
  /// Candidates whose M cells the body loaded: n_left·n_right unless it
  /// skipped blocks.
  std::uint64_t scored = 0;
};

namespace detail {
// Entry points of the per-ISA translation units, each built with its own -m
// flags (src/core/CMakeLists.txt). Defined only when CMake detects compiler
// support (OMEGA_HAVE_AVX2_TU / OMEGA_HAVE_AVX512_TU); callers in
// omega_kernel_cpu.cpp also gate on runtime CPUID.
OmegaViewBest omega_search_avx2(const OmegaPositionView& view);
OmegaViewBest omega_search_avx512(const OmegaPositionView& view);
}  // namespace detail

}  // namespace omega::core
