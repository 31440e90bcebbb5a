#pragma once
// Bit-packed blocked LD engine (ROADMAP item 2): the PLINK-style answer to
// GemmLd's byte panels. Operands stay 1 bit per genotype end-to-end — 256
// genotypes per AVX2 vector — and every row is stored and counted at its real
// width (words_per_site() words, no padding), so a 64-haplotype site is one
// u64 word and a B block of 256 sites is 2 KiB of contiguous words.
//
// Counting runs in two steps per (A block x B block) of the BLIS-shaped loop
// nest. The count kernel ANDs and popcounts each pair, its body picked by the
// row width: one-word complete rows broadcast an A word against contiguous B
// words and one-word fused rows run popcntq; other rows a vectorized popcount
// (vpshufb nibble-LUT + vpsadbw, popcntq for the last words % 4 words) in a
// 1 x 4 register tile, or per pair with a Harley-Seal carry-save reduction
// once the sample dimension is deep enough to amortize it. The count->r2
// kernel then evaluates Eq. (1) eight cells at a time in r2_from_counts_f's
// exact operation order, so every r2 float is bitwise what PopcountLd and
// GemmLd produce. Scalar bodies (std::popcount, r2_from_counts_f) back the
// same loop nest on hosts/binaries without AVX2; selection happens once at
// engine construction through util/cpu_features, mirroring the
// omega_kernel_avx2.cpp per-TU dispatch pattern.
//
// Missing data: rows are packed as fused [data | mask] rows and the fused
// count kernel produces all four pairwise-complete count streams
// (data.data, data.mask, mask.data, mask.mask) in ONE pass — where GemmLd
// runs four independent GEMM sweeps.
//
// Panel cache: packing is lazy and cached per site-range block, so the
// B-panels of a chunk are packed exactly once and every subsequent
// DpMatrix::extend against the same chunk is all cache hits (counters
// ld.panel_cache.{hits,misses} in the telemetry registry). The cache is
// keyed by site range over the engine's immutable SnpMatrix; a chunk switch
// builds a new engine and thereby invalidates it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"

namespace omega::ld {

/// Cache blocking of the packed engine. One count-kernel call covers an
/// mc x nc block of sites over a kc_words depth slice; its counts stay in a
/// per-thread scratch until the count->r2 step turns them into floats.
struct PackedBlocking {
  std::size_t mc = 128;        // A-block height in sites (ic loop)
  std::size_t nc = 256;        // B-block width in sites (jc loop)
  std::size_t kc_words = 512;  // depth slice in u64 words (pc loop)
  /// Pack/cache granularity: sites per lazily-packed panel block.
  std::size_t sites_per_panel = 256;
};

/// Which kernel bodies the packed engine runs. Auto resolves to Avx2 when
/// the binary carries the AVX2 TU and the host supports it.
enum class PackedIsa { Auto, Scalar, Avx2 };

/// True when the AVX2 kernels are compiled in and the host can run them.
[[nodiscard]] bool packed_avx2_available() noexcept;

/// The body PackedIsa::Auto resolves to on this binary/host ("avx2" or
/// "scalar"); stamped into the metrics "ld" block and BENCH_LD.json.
[[nodiscard]] const char* packed_isa_name(PackedIsa isa);

namespace packed_detail {

/// Count kernel over complete rows: c[i * ldc + j] += popcount(A_i & B_j)
/// over `words` words, for i < m, j < n. Row r of a panel starts at
/// panel + r * stride_words; callers offset `panel` by the current depth
/// slice and keep `stride_words` at the full row stride.
using TileCountsFn = void (*)(const std::uint64_t* a_panel,
                              const std::uint64_t* b_panel,
                              std::size_t stride_words, std::size_t words,
                              std::size_t m, std::size_t n, std::uint32_t* c,
                              std::size_t ldc);

/// Fused pairwise-complete count kernel over [data | mask] rows (mask at
/// row + mask_offset words): accumulates the four streams in one pass into
/// four planes laid out like TileCountsFn's c, plane k at c + k * plane for
/// k = 0: n11, 1: ni, 2: nj, 3: n.
using TileFusedFn = void (*)(const std::uint64_t* a_panel,
                             const std::uint64_t* b_panel,
                             std::size_t stride_words, std::size_t mask_offset,
                             std::size_t words, std::size_t m, std::size_t n,
                             std::uint32_t* c, std::size_t ldc,
                             std::size_t plane);

/// Count->r2 over one row of cells sharing n = samples (complete rows):
/// out[j] = r2_from_counts_f({samples, ni, nj[j], nij[j]}) bit for bit, with
/// nj[j] the column sites' derived counts.
using R2SharedFn = void (*)(std::int32_t samples, std::int32_t ni,
                            const std::int32_t* nj, const std::uint32_t* nij,
                            std::size_t count, float* out);

/// Count->r2 over pairwise-complete cells:
/// out[k] = r2_from_counts_f({n[k], ni[k], nj[k], nij[k]}) bit for bit.
using R2PairwiseFn = void (*)(const std::uint32_t* nij, const std::uint32_t* ni,
                              const std::uint32_t* nj, const std::uint32_t* n,
                              std::size_t count, float* out);

struct PackedKernels {
  TileCountsFn tile = nullptr;
  TileFusedFn tile_fused = nullptr;
  R2SharedFn r2_shared = nullptr;
  R2PairwiseFn r2_pairwise = nullptr;
  const char* isa = "scalar";
};

/// Scalar bodies (always available; the test oracle for the AVX2 TU).
[[nodiscard]] const PackedKernels& scalar_kernels() noexcept;
/// AVX2 bodies; only valid to call when packed_avx2_available().
[[nodiscard]] const PackedKernels& avx2_kernels() noexcept;
/// Resolves `isa` (Auto -> best available). Throws std::runtime_error when
/// Avx2 is forced on a binary/host that cannot run it.
[[nodiscard]] const PackedKernels& resolve_kernels(PackedIsa isa);

}  // namespace packed_detail

/// The bit-packed blocked engine (non-owning view of the matrix).
class PackedLd final : public LdEngine {
 public:
  explicit PackedLd(const SnpMatrix& snps, PackedBlocking blocking = {},
                    PackedIsa isa = PackedIsa::Auto);

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return "packed"; }
  [[nodiscard]] std::size_t num_sites() const override {
    return snps_.num_sites();
  }

  /// The kernel bodies this instance resolved to ("avx2" | "scalar").
  [[nodiscard]] const char* isa() const noexcept { return kernels_.isa; }

  /// Panel-cache accounting over this engine's lifetime (also mirrored into
  /// the process-wide telemetry counters ld.panel_cache.{misses,hits}).
  [[nodiscard]] std::uint64_t panel_packs() const noexcept {
    return packs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t panel_hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  /// Packs (and caches) every panel block overlapping [begin, end); returns
  /// the number of blocks packed by this call (0 = all hits).
  std::size_t ensure_packed(std::size_t begin, std::size_t end) const;

  /// Start of site `s`'s packed row inside the arena.
  [[nodiscard]] const std::uint64_t* arena_row(std::size_t s) const noexcept {
    return arena_.get() + s * stride_words_;
  }

  const SnpMatrix& snps_;
  PackedBlocking blocking_;
  packed_detail::PackedKernels kernels_;
  bool fused_ = false;           // missing data -> fused [data | mask] rows
  std::size_t row_words_ = 0;    // words_per_site(): rows at their real width
  std::size_t stride_words_ = 0;  // row_words_ * (fused_ ? 2 : 1)
  std::size_t num_blocks_ = 0;    // ceil(sites / sites_per_panel)

  // The arena and the per-block packed flags are the panel cache: blocks are
  // packed lazily under pack_mutex_ and readers spin-free on the acquire
  // flags, so concurrent workers of a multithreaded scan share one cache.
  mutable std::unique_ptr<std::uint64_t[]> arena_;
  mutable std::unique_ptr<std::atomic<bool>[]> block_packed_;
  mutable std::mutex pack_mutex_;
  mutable std::atomic<std::uint64_t> packs_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
};

}  // namespace omega::ld
