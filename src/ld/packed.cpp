#include "ld/packed.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cpu_features.h"
#include "util/probe.h"
#include "util/telemetry.h"

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

namespace {

/// The table of `isa` when the binary carries its TU and `cpu` runs it,
/// nullptr otherwise; the scalar table for Auto and Scalar.
const PackedKernels* runnable(PackedIsa isa,
                              const util::CpuFeatures& cpu) noexcept {
  switch (isa) {
    case PackedIsa::Avx2:
#if defined(OMEGA_LD_HAVE_AVX2_TU)
      return cpu.avx2 ? &avx2_kernels() : nullptr;
#else
      return nullptr;
#endif
    case PackedIsa::Avx512:
#if defined(OMEGA_LD_HAVE_AVX512_TU)
      return cpu.avx512f && cpu.avx512vpopcntdq ? &avx512_kernels() : nullptr;
#else
      return nullptr;
#endif
    case PackedIsa::Auto:
    case PackedIsa::Scalar:
      break;
  }
  (void)cpu;
  return &scalar_kernels();
}

}  // namespace

const PackedKernels& resolve_kernels(PackedIsa isa,
                                     const util::CpuFeatures& cpu) {
  if (isa == PackedIsa::Auto) {
    for (PackedIsa widest : {PackedIsa::Avx512, PackedIsa::Avx2}) {
      if (const PackedKernels* kernels = runnable(widest, cpu)) return *kernels;
    }
    return scalar_kernels();
  }
  if (const PackedKernels* kernels = runnable(isa, cpu)) return *kernels;
  throw std::runtime_error(
      std::string("packed LD engine: ") +
      (isa == PackedIsa::Avx2 ? "avx2" : "avx512") +
      " requested but this binary/host cannot run it");
}

const PackedKernels& resolve_kernels(PackedIsa isa) {
  return resolve_kernels(isa, util::cpu_features());
}

}  // namespace packed_detail

bool packed_isa_available(PackedIsa isa) noexcept {
  return packed_detail::runnable(isa, util::cpu_features()) != nullptr;
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
  // The whole block call is one trace span; its pack and kernel phases are
  // the ld.pack / ld.kernel stages.
  static const util::probe::Site kBlock("ld.packed.r2_block", nullptr);
  static const util::probe::Site kPack(nullptr, "ld.pack_seconds", "ld.pack");
  static const util::probe::Site kKernel(nullptr, "ld.kernel_seconds",
                                         "ld.kernel");
  const util::probe::Stage block(kBlock);
  note_served(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
  const std::size_t m = i1 - i0;
  const std::size_t n = j1 - j0;
  if (m == 0 || n == 0) return;

  {
    const util::probe::Stage pack(kPack);
    ensure_packed(i0, i1);
    ensure_packed(j0, j1);
  }

  const util::probe::Stage kernel(kKernel);
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
}

}  // namespace omega::ld
