#include "core/omega_kernel_cpu.h"

#include <algorithm>
#include <stdexcept>

#include "core/omega_kernel_body.h"
#include "core/omega_math.h"
#include "util/cpu_features.h"

namespace omega::core {

const char* cpu_kernel_name(CpuKernelKind kind) noexcept {
  switch (kind) {
    case CpuKernelKind::Auto: return "auto";
    case CpuKernelKind::Scalar: return "scalar";
    case CpuKernelKind::Portable: return "portable";
    case CpuKernelKind::Avx2: return "avx2";
    case CpuKernelKind::Avx512: return "avx512";
  }
  return "unknown";
}

CpuKernelKind cpu_kernel_from_name(const std::string& name) {
  for (CpuKernelKind kind :
       {CpuKernelKind::Auto, CpuKernelKind::Scalar, CpuKernelKind::Portable,
        CpuKernelKind::Avx2, CpuKernelKind::Avx512}) {
    if (name == cpu_kernel_name(kind)) return kind;
  }
  throw std::invalid_argument(
      "unknown cpu kernel '" + name +
      "' (expected auto | scalar | portable | avx2 | avx512)");
}

namespace {

/// Why `kind` cannot run against `cpu`, or nullptr when it can.
const char* unavailable_reason(CpuKernelKind kind,
                               const util::CpuFeatures& cpu) noexcept {
  switch (kind) {
    case CpuKernelKind::Avx2:
#if defined(OMEGA_HAVE_AVX2_TU)
      return cpu.avx2 && cpu.fma ? nullptr : "host CPU lacks AVX2+FMA";
#else
      return "binary built without AVX2 support";
#endif
    case CpuKernelKind::Avx512:
#if defined(OMEGA_HAVE_AVX512_TU)
      return cpu.avx512f && cpu.avx2 && cpu.fma ? nullptr
                                                : "host CPU lacks AVX-512F";
#else
      return "binary built without AVX-512 support";
#endif
    case CpuKernelKind::Auto:
    case CpuKernelKind::Scalar:
    case CpuKernelKind::Portable:
      break;
  }
  (void)cpu;
  return nullptr;
}

}  // namespace

bool cpu_kernel_available(CpuKernelKind kind) noexcept {
  return unavailable_reason(kind, util::cpu_features()) == nullptr;
}

CpuKernelKind resolve_cpu_kernel(CpuKernelKind requested,
                                 const util::CpuFeatures& cpu) {
  if (requested == CpuKernelKind::Auto) {
    for (CpuKernelKind kind : {CpuKernelKind::Avx512, CpuKernelKind::Avx2}) {
      if (unavailable_reason(kind, cpu) == nullptr) return kind;
    }
    return CpuKernelKind::Portable;
  }
  if (const char* reason = unavailable_reason(requested, cpu)) {
    throw std::runtime_error(std::string("cpu kernel '") +
                             cpu_kernel_name(requested) +
                             "' requested but unavailable (" + reason +
                             "); use --cpu-kernel=auto");
  }
  return requested;
}

CpuKernelKind resolve_cpu_kernel(CpuKernelKind requested) {
  return resolve_cpu_kernel(requested, util::cpu_features());
}

void CpuKernelCounters::add(CpuKernelKind kind,
                            const OmegaResult& result) noexcept {
  const std::uint64_t evaluations = result.evaluated;
  switch (kind) {
    case CpuKernelKind::Scalar: scalar_evaluations += evaluations; break;
    case CpuKernelKind::Portable: portable_evaluations += evaluations; break;
    case CpuKernelKind::Avx2: avx2_evaluations += evaluations; break;
    case CpuKernelKind::Avx512: avx512_evaluations += evaluations; break;
    case CpuKernelKind::Auto: break;  // unresolved kinds never run
  }
  candidates_scored += result.scored;
}

OmegaPositionView OmegaKernelScratch::view(const DpMatrix& m,
                                           const GridPosition& position,
                                           std::size_t b_begin,
                                           std::size_t b_end,
                                           CpuKernelKind kind) {
  const std::size_t c = position.c;
  const std::size_t n_left = position.a_max - position.lo + 1;
  ls_.resize(n_left);
  kl_.resize(n_left);
  l_.resize(n_left);
  for (std::size_t ai = 0; ai < n_left; ++ai) {
    const std::size_t a = position.lo + ai;
    const std::size_t l = c - a + 1;
    // at_fast (not a raw row read): degenerate hand-built positions allow
    // a == c, where LS is the implicit zero diagonal entry.
    ls_[ai] = m.at_fast(c, a);
    kl_[ai] = choose2(l);
    l_[ai] = static_cast<double>(l);
  }

  const std::size_t n_right = b_end - b_begin + 1;
  rows_.resize(n_right);
  rs_.resize(n_right);
  kr_.resize(n_right);
  r_.resize(n_right);
  for (std::size_t bi = 0; bi < n_right; ++bi) {
    const std::size_t b = b_begin + bi;
    // a < b always (a <= c < b), so the row-b slice never touches the
    // implicit diagonal and a raw contiguous read is safe.
    rows_[bi] = m.row_data(b) + (position.lo - m.base());
    rs_[bi] = m.at_fast(b, c + 1);
    kr_[bi] = choose2(b - c);
    r_[bi] = static_cast<double>(b - c);
  }
  OmegaPositionView v{ls_.data(), kl_.data(), l_.data(), n_left,
                      rows_.data(), rs_.data(), kr_.data(), r_.data(),
                      n_right};

  // The cells read are M(b, a) with lo <= a and b <= b_end, so each spans
  // at most `width` sites, and M(b_end, lo) is the largest of them; the
  // margin is the body header's δ = width·2^-49 times that cell.
  const std::size_t width = b_end - position.lo + 1;
  if (!m.r2_nonnegative() || width > kMaxPruneWidth) return v;
  v.prune = true;
  v.cross_margin =
      static_cast<double>(width) * 0x1p-49 * rows_[n_right - 1][0];
  const std::size_t lanes = kind == CpuKernelKind::Avx512 ? 8
                            : kind == CpuKernelKind::Avx2 ? 4
                                                          : 0;
  if (lanes == 0) return v;
  const std::size_t blocks = n_left / lanes;
  corners_.resize(4 * blocks);
  double* ls0 = corners_.data();
  double* l0 = ls0 + blocks;
  double* kl1 = l0 + blocks;
  double* ls1 = kl1 + blocks;
  for (std::size_t k = 0; k < blocks; ++k) {
    const std::size_t first = k * lanes;
    const std::size_t last = first + lanes - 1;
    ls0[k] = ls_[first];
    l0[k] = l_[first];
    kl1[k] = kl_[last];
    ls1[k] = ls_[last];
  }
  v.block = lanes;
  v.block_ls0 = ls0;
  v.block_l0 = l0;
  v.block_kl1 = kl1;
  v.block_ls1 = ls1;
  return v;
}

namespace {

/// Portable fused-divide body: two passes per kChunk left borders of each
/// right border — a branch-free omega computation into `buf`
/// (autovectorizable: every operation is a lane-wise add/mul/div over the
/// SoA tables and the contiguous row-b slice), then a scalar argmax scan
/// preserving the reference tie-break. A chunk whose block bound is below
/// the best so far is skipped (detail::block_below). `cross + eps * lr`
/// stays unfused: this TU builds with -ffp-contract=off, so the result does
/// not depend on the target's FMA support.
OmegaViewBest portable_search(const OmegaPositionView& view,
                              std::vector<double>& buf) {
  const double eps = OmegaConfig::denominator_offset;
  buf.resize(view.n_left);
  double* omega = buf.data();
  OmegaViewBest best{0.0, 0, 0};
  for (std::size_t bi = 0; bi < view.n_right; ++bi) {
    const double rs = view.rs[bi];
    const double r_d = view.r[bi];
    const double kr = view.kr[bi];
    const double* row_b = view.rows[bi];
    for (std::size_t a0 = 0; a0 < view.n_left; a0 += detail::kChunk) {
      const std::size_t a1 = std::min(a0 + detail::kChunk, view.n_left);
      if (view.prune &&
          detail::block_below(view, a0, a1 - 1, bi, bi, best.value)) {
        continue;
      }
      best.scored += a1 - a0;
      for (std::size_t ai = a0; ai < a1; ++ai) {
        const double lr = view.l[ai] * r_d;
        const double sum = view.ls[ai] + rs;
        const double cross = row_b[ai] - sum;
        const double pairs = view.kl[ai] + kr;
        // Fused form of Eq. (2): one divide per omega. pairs == 0 only for
        // degenerate l == r == 1 windows, where the reference scores 0.
        omega[ai] =
            pairs > 0.0 ? (sum * lr) / (pairs * (cross + eps * lr)) : 0.0;
      }
      for (std::size_t ai = a0; ai < a1; ++ai) {
        if (omega[ai] > best.value) {
          best.value = omega[ai];
          best.ai = ai;
          best.bi = bi;
        }
      }
    }
  }
  return best;
}

}  // namespace

OmegaViewBest omega_kernel_search_view(const OmegaPositionView& view,
                                       CpuKernelKind kind,
                                       std::vector<double>& buf) {
  switch (kind) {
    case CpuKernelKind::Portable:
      return portable_search(view, buf);
    case CpuKernelKind::Avx2:
#if defined(OMEGA_HAVE_AVX2_TU)
      return detail::omega_search_avx2(view);
#else
      break;
#endif
    case CpuKernelKind::Avx512:
#if defined(OMEGA_HAVE_AVX512_TU)
      return detail::omega_search_avx512(view);
#else
      break;
#endif
    case CpuKernelKind::Auto:
    case CpuKernelKind::Scalar:
      break;
  }
  throw std::logic_error(std::string("omega_kernel_search_view: '") +
                         cpu_kernel_name(kind) +
                         "' is not a fused body compiled into this binary");
}

OmegaResult omega_kernel_search(const DpMatrix& m, const GridPosition& position,
                                CpuKernelKind kind,
                                OmegaKernelScratch& scratch) {
  if (!position.valid) return {};
  if (kind == CpuKernelKind::Scalar) return max_omega_search(m, position);
  const OmegaPositionView view =
      scratch.view(m, position, position.b_min, position.hi, kind);
  const OmegaViewBest best =
      omega_kernel_search_view(view, kind, scratch.omega);
  OmegaResult result;
  result.evaluated = static_cast<std::uint64_t>(view.n_right) * view.n_left;
  result.scored = best.scored;
  result.max_omega = best.value;
  if (best.value > 0.0) {
    result.best_a = position.lo + best.ai;
    result.best_b = position.b_min + best.bi;
  }
  return result;
}

}  // namespace omega::core
