#include "ld/packed.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/cpu_features.h"
#include "util/perf_counters.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace omega::ld {
namespace packed_detail {
namespace {

void tile_counts_scalar(const std::uint64_t* a_panel,
                        const std::uint64_t* b_panel, std::size_t stride_words,
                        std::size_t words, std::size_t m, std::size_t n,
                        std::uint32_t* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* a = a_panel + i * stride_words;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* b = b_panel + j * stride_words;
      std::uint64_t sum = 0;
      for (std::size_t w = 0; w < words; ++w) {
        sum += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
      }
      c[i * ldc + j] += static_cast<std::uint32_t>(sum);
    }
  }
}

void tile_fused_scalar(const std::uint64_t* a_panel,
                       const std::uint64_t* b_panel, std::size_t stride_words,
                       std::size_t mask_offset, std::size_t words,
                       std::size_t m, std::size_t n, std::uint32_t* c,
                       std::size_t ldc, std::size_t plane) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* ad = a_panel + i * stride_words;
    const std::uint64_t* am = ad + mask_offset;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* bd = b_panel + j * stride_words;
      const std::uint64_t* bm = bd + mask_offset;
      std::uint64_t n11 = 0, ni = 0, nj = 0, nn = 0;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t da = ad[w];
        const std::uint64_t ma = am[w];
        const std::uint64_t db = bd[w];
        const std::uint64_t mb = bm[w];
        n11 += static_cast<std::uint64_t>(std::popcount(da & db));
        ni += static_cast<std::uint64_t>(std::popcount(da & mb));
        nj += static_cast<std::uint64_t>(std::popcount(ma & db));
        nn += static_cast<std::uint64_t>(std::popcount(ma & mb));
      }
      std::uint32_t* cell = c + i * ldc + j;
      cell[0] += static_cast<std::uint32_t>(n11);
      cell[plane] += static_cast<std::uint32_t>(ni);
      cell[2 * plane] += static_cast<std::uint32_t>(nj);
      cell[3 * plane] += static_cast<std::uint32_t>(nn);
    }
  }
}

void r2_shared_scalar(std::int32_t samples, std::int32_t ni,
                      const std::int32_t* nj, const std::uint32_t* nij,
                      std::size_t count, float* out) {
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = r2_from_counts_f(
        {samples, ni, nj[j], static_cast<std::int32_t>(nij[j])});
  }
}

void r2_pairwise_scalar(const std::uint32_t* nij, const std::uint32_t* ni,
                        const std::uint32_t* nj, const std::uint32_t* n,
                        std::size_t count, float* out) {
  for (std::size_t k = 0; k < count; ++k) {
    out[k] = r2_from_counts_f({static_cast<std::int32_t>(n[k]),
                               static_cast<std::int32_t>(ni[k]),
                               static_cast<std::int32_t>(nj[k]),
                               static_cast<std::int32_t>(nij[k])});
  }
}

}  // namespace

const PackedKernels& scalar_kernels() noexcept {
  static const PackedKernels kernels{tile_counts_scalar, tile_fused_scalar,
                                     r2_shared_scalar, r2_pairwise_scalar,
                                     "scalar"};
  return kernels;
}

#if !defined(OMEGA_LD_HAVE_AVX2_TU)
// The compiler could not target AVX2, so the vector TU compiled to nothing;
// resolve_kernels never hands these out (packed_avx2_available() is false),
// but the symbol must exist for the link.
const PackedKernels& avx2_kernels() noexcept { return scalar_kernels(); }
#endif

const PackedKernels& resolve_kernels(PackedIsa isa) {
  switch (isa) {
    case PackedIsa::Scalar:
      return scalar_kernels();
    case PackedIsa::Avx2:
      if (!packed_avx2_available()) {
        throw std::runtime_error(
            "packed LD engine: AVX2 requested but this binary/host cannot "
            "run it");
      }
      return avx2_kernels();
    case PackedIsa::Auto:
      return packed_avx2_available() ? avx2_kernels() : scalar_kernels();
  }
  throw std::logic_error("unknown PackedIsa");
}

}  // namespace packed_detail

bool packed_avx2_available() noexcept {
#if defined(OMEGA_LD_HAVE_AVX2_TU)
  return util::cpu_features().avx2;
#else
  return false;
#endif
}

const char* packed_isa_name(PackedIsa isa) {
  return packed_detail::resolve_kernels(isa).isa;
}

PackedLd::PackedLd(const SnpMatrix& snps, PackedBlocking blocking,
                   PackedIsa isa)
    : snps_(snps),
      blocking_(blocking),
      kernels_(packed_detail::resolve_kernels(isa)),
      fused_(snps.has_missing()) {
  blocking_.mc = std::max<std::size_t>(blocking_.mc, 1);
  blocking_.nc = std::max<std::size_t>(blocking_.nc, 1);
  blocking_.kc_words = std::max<std::size_t>(blocking_.kc_words, 1);
  blocking_.sites_per_panel = std::max<std::size_t>(blocking_.sites_per_panel, 1);

  row_words_ = snps_.words_per_site();
  stride_words_ = row_words_ * (fused_ ? 2 : 1);
  const std::size_t sites = snps_.num_sites();
  num_blocks_ =
      (sites + blocking_.sites_per_panel - 1) / blocking_.sites_per_panel;
  if (sites > 0) {
    arena_ = std::make_unique<std::uint64_t[]>(sites * stride_words_);
    block_packed_ = std::make_unique<std::atomic<bool>[]>(num_blocks_);
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      block_packed_[b].store(false, std::memory_order_relaxed);
    }
  }
}

std::size_t PackedLd::ensure_packed(std::size_t begin, std::size_t end) const {
  static util::telemetry::Counter& hit_counter =
      util::telemetry::counter("ld.panel_cache.hits");
  static util::telemetry::Counter& miss_counter =
      util::telemetry::counter("ld.panel_cache.misses");
  if (begin >= end) return 0;
  const std::size_t first = begin / blocking_.sites_per_panel;
  const std::size_t last = (end - 1) / blocking_.sites_per_panel;

  // Fast path: every requested block already packed (the cross-extend case:
  // after the first extend against a chunk, subsequent calls are all hits).
  bool all_packed = true;
  for (std::size_t b = first; b <= last; ++b) {
    if (!block_packed_[b].load(std::memory_order_acquire)) {
      all_packed = false;
      break;
    }
  }
  if (all_packed) {
    const std::uint64_t blocks = last - first + 1;
    hits_.fetch_add(blocks, std::memory_order_relaxed);
    hit_counter.add(blocks);
    return 0;
  }

  std::size_t packed_now = 0;
  std::uint64_t hits_now = 0;
  const std::lock_guard<std::mutex> lock(pack_mutex_);
  for (std::size_t b = first; b <= last; ++b) {
    if (block_packed_[b].load(std::memory_order_relaxed)) {
      ++hits_now;
      continue;
    }
    const std::size_t s0 = b * blocking_.sites_per_panel;
    const std::size_t s1 =
        std::min(s0 + blocking_.sites_per_panel, snps_.num_sites());
    for (std::size_t s = s0; s < s1; ++s) {
      std::uint64_t* row = arena_.get() + s * stride_words_;
      std::memcpy(row, snps_.row(s), row_words_ * sizeof(std::uint64_t));
      if (fused_) {
        std::memcpy(row + row_words_, snps_.mask(s),
                    row_words_ * sizeof(std::uint64_t));
      }
    }
    block_packed_[b].store(true, std::memory_order_release);
    ++packed_now;
  }
  packs_.fetch_add(packed_now, std::memory_order_relaxed);
  miss_counter.add(packed_now);
  if (hits_now > 0) {
    hits_.fetch_add(hits_now, std::memory_order_relaxed);
    hit_counter.add(hits_now);
  }
  return packed_now;
}

void PackedLd::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1, float* out, std::size_t ld) const {
  static util::telemetry::Histogram& pack_hist =
      util::telemetry::histogram("ld.pack_seconds");
  static util::telemetry::Histogram& kernel_hist =
      util::telemetry::histogram("ld.kernel_seconds");
  // Hardware-counter scopes cover exactly the histograms' timed regions so
  // perf.ld.pack/ld.kernel scope counts reconcile with the histogram counts.
  static util::perf::StageCounters& pack_perf = util::perf::stage("ld.pack");
  static util::perf::StageCounters& kernel_perf =
      util::perf::stage("ld.kernel");
  const util::trace::Span span("ld.packed.r2_block");
  note_served(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
  const std::size_t m = i1 - i0;
  const std::size_t n = j1 - j0;
  if (m == 0 || n == 0) return;

  {
    const util::perf::StageScope perf_scope(pack_perf);
    const util::Timer pack_timer;
    ensure_packed(i0, i1);
    ensure_packed(j0, j1);
    pack_hist.record(pack_timer.seconds());
  }

  const util::perf::StageScope kernel_perf_scope(kernel_perf);
  const util::Timer kernel_timer;
  const auto samples = static_cast<std::int32_t>(snps_.num_samples());
  const std::size_t mc = std::min(blocking_.mc, m);
  const std::size_t nc = std::min(blocking_.nc, n);
  const std::size_t plane = mc * nc;

  // Per-thread scratch: engines are shared across scan workers, so the count
  // planes of one block cannot live in the (const) engine itself.
  static thread_local std::vector<std::uint32_t> scratch;
  scratch.resize(plane * (fused_ ? 4 : 1));
  std::uint32_t* counts = scratch.data();

  // BLIS-shaped jc (B sites) -> ic (A sites) -> pc (depth words) loop nest
  // over the packed arena. Depth blocking splits each pair's popcount into
  // kc_words partial sums; integer addition commutes, so the counts (and
  // hence r2) are independent of the blocking parameters. Each finished
  // mc x nc block of counts goes straight through the count->r2 kernel, one
  // row of cells at a time, while it is still in cache.
  for (std::size_t jc = 0; jc < n; jc += nc) {
    const std::size_t ncb = std::min(nc, n - jc);
    const std::uint64_t* b_block = arena_row(j0 + jc);
    for (std::size_t ic = 0; ic < m; ic += mc) {
      const std::size_t mcb = std::min(mc, m - ic);
      const std::uint64_t* a_block = arena_row(i0 + ic);
      for (std::size_t k = 0; k < (fused_ ? 4u : 1u); ++k) {
        std::fill_n(counts + k * plane, mcb * ncb, 0u);
      }
      for (std::size_t pc = 0; pc < row_words_; pc += blocking_.kc_words) {
        const std::size_t kw = std::min(blocking_.kc_words, row_words_ - pc);
        if (fused_) {
          kernels_.tile_fused(a_block + pc, b_block + pc, stride_words_,
                              row_words_, kw, mcb, ncb, counts, ncb, plane);
        } else {
          kernels_.tile(a_block + pc, b_block + pc, stride_words_, kw, mcb,
                        ncb, counts, ncb);
        }
      }
      for (std::size_t r = 0; r < mcb; ++r) {
        float* row = out + (ic + r) * ld + jc;
        const std::uint32_t* cell = counts + r * ncb;
        if (fused_) {
          kernels_.r2_pairwise(cell, cell + plane, cell + 2 * plane,
                               cell + 3 * plane, ncb, row);
        } else {
          kernels_.r2_shared(samples, snps_.derived_count(i0 + ic + r),
                             snps_.derived_counts() + j0 + jc, cell, ncb,
                             row);
        }
      }
    }
  }
  kernel_hist.record(kernel_timer.seconds());
}

}  // namespace omega::ld
