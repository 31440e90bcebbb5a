#pragma once
// Runtime CPU feature detection for kernel dispatch. The AVX2 and AVX-512
// instances of the omega kernel and of the packed LD kernels are each
// compiled into their own translation unit with per-file -m flags; whether
// one is *called* is decided here at runtime, so the same binary runs
// correctly on hosts without those extensions.

#include <string>

namespace omega::util {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;  // CPU and OS support (libgcc checks the ZMM state)
  bool avx512vpopcntdq = false;  // vpopcntq / vpopcntd on 512-bit vectors
};

/// Detected features of the executing CPU (cached after the first query).
[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

/// Human-readable summary of the detected ISA level, e.g.
/// "avx512f+vpopcntdq+avx2+fma", "avx512f+avx2+fma", "avx2+fma" or
/// "baseline"; used by the CLI dispatch report and the bench harness.
[[nodiscard]] std::string cpu_isa_summary();

/// Marketing model string of the executing CPU (x86 CPUID brand string,
/// whitespace-normalized), or "unknown" where unavailable. Stamped into
/// BENCH_*.json host blocks so omega_metrics_diff can refuse cross-host
/// comparisons.
[[nodiscard]] std::string cpu_model();

}  // namespace omega::util
