#include "core/scanner.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/scan_driver.h"
#include "ld/packed.h"
#include "util/progress.h"
#include "util/trace.h"

namespace omega::core {

std::size_t resolve_scan_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

LdBackendKind resolve_ld_backend(LdBackendKind kind) noexcept {
  // Auto always resolves to the packed engine: it carries its own AVX2 vs
  // scalar microkernel dispatch, so it is the best available choice on every
  // host, and all engines produce bitwise-identical r2 anyway.
  return kind == LdBackendKind::Auto ? LdBackendKind::Packed : kind;
}

const char* ld_backend_name(LdBackendKind kind) noexcept {
  switch (kind) {
    case LdBackendKind::Naive:
      return "naive";
    case LdBackendKind::Popcount:
      return "popcount";
    case LdBackendKind::Gemm:
      return "gemm";
    case LdBackendKind::Packed:
      return "packed";
    case LdBackendKind::Auto:
      return "auto";
  }
  return "unknown";
}

LdBackendKind ld_backend_from_name(std::string_view name) {
  if (name == "naive") return LdBackendKind::Naive;
  if (name == "popcount") return LdBackendKind::Popcount;
  if (name == "gemm") return LdBackendKind::Gemm;
  if (name == "packed") return LdBackendKind::Packed;
  if (name == "auto") return LdBackendKind::Auto;
  throw std::invalid_argument("unknown LD engine: " + std::string(name) +
                              " (expected auto | naive | popcount | gemm | "
                              "packed)");
}

std::unique_ptr<ld::LdEngine> make_ld_engine(LdBackendKind kind,
                                             const io::Dataset& dataset,
                                             const ld::SnpMatrix& snps) {
  switch (resolve_ld_backend(kind)) {
    case LdBackendKind::Naive:
      return std::make_unique<ld::NaiveLd>(dataset);
    case LdBackendKind::Popcount:
      return std::make_unique<ld::PopcountLd>(snps);
    case LdBackendKind::Gemm:
      return std::make_unique<ld::GemmLd>(snps);
    case LdBackendKind::Packed:
      return std::make_unique<ld::PackedLd>(snps);
    case LdBackendKind::Auto:
      break;  // resolved above; unreachable
  }
  throw std::logic_error("unknown LD backend");
}

// ---------------------------------------------------------------------------
// CpuOmegaBackend
// ---------------------------------------------------------------------------

CpuOmegaBackend::CpuOmegaBackend()
    : kind_(resolve_cpu_kernel(CpuKernelKind::Auto)) {}

CpuOmegaBackend::CpuOmegaBackend(CpuKernelKind kind)
    : kind_(resolve_cpu_kernel(kind)) {}

OmegaResult CpuOmegaBackend::max_omega(const DpMatrix& m,
                                       const GridPosition& position) {
  OmegaResult result = omega_kernel_search(m, position, kind_, scratch_);
  counters_.add(kind_, result.evaluated);
  ++positions_;
  return result;
}

void CpuOmegaBackend::contribute(ScanProfile& profile) const {
  profile.kernel.positions += positions_;
  profile.kernel.scalar_evaluations += counters_.scalar_evaluations;
  profile.kernel.portable_evaluations += counters_.portable_evaluations;
  profile.kernel.avx2_evaluations += counters_.avx2_evaluations;
}

const PositionScore& ScanResult::best() const {
  const PositionScore* best = nullptr;
  for (const PositionScore& score : scores) {
    if (!score.valid) continue;
    if (best == nullptr || score.max_omega > best->max_omega) best = &score;
  }
  if (best == nullptr) {
    throw std::logic_error("scan result contains no valid score");
  }
  return *best;
}

bool ScanResult::has_valid() const noexcept {
  return std::any_of(scores.begin(), scores.end(),
                     [](const PositionScore& score) { return score.valid; });
}

std::vector<PositionScore> ScanResult::top(std::size_t k) const {
  std::vector<PositionScore> sorted;
  sorted.reserve(scores.size());
  std::copy_if(scores.begin(), scores.end(), std::back_inserter(sorted),
               [](const PositionScore& score) { return score.valid; });
  std::sort(sorted.begin(), sorted.end(),
            [](const PositionScore& a, const PositionScore& b) {
              return a.max_omega > b.max_omega;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

ScanResult scan(const io::Dataset& dataset, const ScannerOptions& options,
                const std::function<std::unique_ptr<OmegaBackend>()>&
                    backend_factory) {
  // The single-resident-chunk case of the stream driver: one engine over the
  // whole dataset and one executor run over the whole grid, with no reader,
  // prefetch, chunk retry or checkpoint.
  const util::trace::Span scan_span("scan");
  detail::ScanExecutor executor(options, backend_factory);
  const ld::SnpMatrix snps(dataset);
  const auto engine = options.ld_factory
                          ? options.ld_factory(snps)
                          : make_ld_engine(options.ld, dataset, snps);
  const auto grid = build_grid(dataset, options.config);

  ScanResult result;
  executor.begin(grid, result);
  result.profile.ld_backend = engine->name();
  if (options.progress != nullptr) {
    const auto valid_positions = static_cast<std::uint64_t>(
        std::count_if(grid.begin(), grid.end(),
                      [](const GridPosition& p) { return p.valid; }));
    options.progress->begin(valid_positions, /*chunks_total=*/0);
  }
  executor.run(grid, 0, grid.size(), *engine, result.scores, result.profile);
  executor.end(grid, result);
  return result;
}

}  // namespace omega::core
