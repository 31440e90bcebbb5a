#pragma once
// Vectorized CPU omega kernel with runtime dispatch — the CPU-side analogue
// of the paper's accelerator datapaths. The scalar reference
// (max_omega_search) burns three divides per Eq. (2) evaluation and reloads
// LS/C(l,2) from the matrix on every inner iteration; this module
// restructures the search into a structure-of-arrays kernel:
//
//   * per-position coefficient tables (LS(a), C(l,2), l as double, and
//     RS(b), C(r,2), r with the row pointers of M) are built once into a
//     view (core/omega_kernel_view.h) and reused across every candidate;
//   * the inner loop walks a contiguous slice of row b of the packed
//     triangle (the Fig. 9 "two columns per iteration" layout observation)
//     and evaluates the algebraically fused form
//
//       omega = (sum * l*r) / (pairs * (cross + eps * l*r)),
//       sum = LS + RS, pairs = C(l,2) + C(r,2), cross = M(b,a) - sum
//
//     — one divide per omega instead of three;
//   * four interchangeable bodies: Scalar (the untouched reference loop,
//     kept for bit-exact comparisons), Portable (autovectorizable fused
//     loop), and Avx2 / Avx512, two instances of one width-generic body
//     (core/omega_kernel_body.h) that scores four right borders per pass,
//     each in a separately compiled translation unit selected only after
//     runtime CPUID detection;
//   * the three fused bodies skip whole blocks of candidates whose bound
//     from a few corner reads is below a value already recorded, when M is
//     monotone (core/omega_kernel_body.h); Scalar stays exhaustive.
//
// All kernels reproduce the reference argmax semantics exactly: strict
// greater-than in b-major / a-ascending scan order, so ties resolve to the
// lowest (b, a) — the property every backend-equivalence test keys on.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_kernel_view.h"
#include "core/omega_search.h"
#include "util/cpu_features.h"

namespace omega::core {

/// Which omega-kernel body the CPU scan path runs. Auto resolves at scan
/// setup to the widest body this binary and host can run: Avx512, then
/// Avx2, then Portable. Scalar is never auto-selected — it is the reference
/// loop, reachable only by explicit request (--cpu-kernel=scalar).
enum class CpuKernelKind { Auto, Scalar, Portable, Avx2, Avx512 };

[[nodiscard]] const char* cpu_kernel_name(CpuKernelKind kind) noexcept;
/// Parses "auto" | "scalar" | "portable" | "avx2" | "avx512"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] CpuKernelKind cpu_kernel_from_name(const std::string& name);

/// True when the running binary can execute `kind`: always for Auto,
/// Scalar and Portable; for Avx2 / Avx512 when the TU is compiled in AND
/// this host's CPU supports its ISA.
[[nodiscard]] bool cpu_kernel_available(CpuKernelKind kind) noexcept;

/// Resolves Auto to a concrete kernel for this binary and the feature set
/// `cpu`. Forcing Avx2 or Avx512 where it cannot run throws
/// std::runtime_error (the CLI surfaces this as a configuration error
/// instead of crashing on SIGILL).
[[nodiscard]] CpuKernelKind resolve_cpu_kernel(CpuKernelKind requested,
                                               const util::CpuFeatures& cpu);
/// resolve_cpu_kernel against this host's util::cpu_features().
[[nodiscard]] CpuKernelKind resolve_cpu_kernel(CpuKernelKind requested);

/// Per-kernel evaluation accounting, merged into ScanProfile::kernel.
struct CpuKernelCounters {
  std::uint64_t scalar_evaluations = 0;
  std::uint64_t portable_evaluations = 0;
  std::uint64_t avx2_evaluations = 0;
  std::uint64_t avx512_evaluations = 0;
  std::uint64_t candidates_scored = 0;

  /// Counts result.evaluated for `kind` and result.scored.
  void add(CpuKernelKind kind, const OmegaResult& result) noexcept;
};

/// Reusable per-thread scratch: the tables one position's view points into,
/// plus the omega row buffer the portable two-pass body writes. Buffers grow
/// monotonically, so a scan allocates once and reuses.
class OmegaKernelScratch {
 public:
  /// Fills the tables for `position` and right borders [b_begin, b_end]
  /// (inside [position.b_min, position.hi]) and returns a view of them for
  /// the body `kind`, valid until the next call or until `m` changes. The
  /// view prunes when m.r2_nonnegative() and its cells span at most
  /// kMaxPruneWidth sites; for Avx2 and Avx512 it then carries the corner
  /// tables of that body's vector blocks.
  OmegaPositionView view(const DpMatrix& m, const GridPosition& position,
                         std::size_t b_begin, std::size_t b_end,
                         CpuKernelKind kind);

  /// Widest span of sites a pruning view covers: the bound's rounding
  /// margin δ holds up to here (core/omega_kernel_body.h).
  static constexpr std::size_t kMaxPruneWidth = std::size_t{1} << 32;

  std::vector<double> omega;  // per-b omega row (portable body)

 private:
  std::vector<double> ls_, kl_, l_;
  std::vector<const double*> rows_;
  std::vector<double> rs_, kr_, r_;
  std::vector<double> corners_;  // the view's four block tables
};

/// Evaluates one grid position with the selected kernel body. `kind` must be
/// concrete (not Auto — call resolve_cpu_kernel first).
OmegaResult omega_kernel_search(const DpMatrix& m, const GridPosition& position,
                                CpuKernelKind kind, OmegaKernelScratch& scratch);

/// Runs a fused body (Portable, Avx2 or Avx512) over a view; `buf` is the
/// portable body's row buffer. `kind` must be available on this host. A
/// view with prune cleared is searched exhaustively.
OmegaViewBest omega_kernel_search_view(const OmegaPositionView& view,
                                       CpuKernelKind kind,
                                       std::vector<double>& buf);

}  // namespace omega::core
