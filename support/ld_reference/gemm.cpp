#include "ld_reference/gemm.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::ld {
namespace {

/// Pair counts the auxiliary block functions have produced, process-wide —
/// the note_served analogue for count paths that run outside an engine
/// instance (cross-validation, benches), so served-pair accounting stays
/// consistent across every LD code path.
util::telemetry::Counter& pair_counts_counter() {
  static util::telemetry::Counter& counter =
      util::telemetry::counter("ld.pair_counts_served");
  return counter;
}

/// Prefetch lead of the popcount block loop, matching the engines'.
constexpr std::size_t kBlockPrefetchRows = 4;

constexpr std::size_t MR = GemmBlocking::mr;
constexpr std::size_t NR = GemmBlocking::nr;

/// Packs rows [row_begin, row_begin + rows) of the SNP matrix, sample-range
/// [k_begin, k_begin + depth), into MR-wide column-interleaved panels:
/// panel layout is ceil(rows/MR) blocks, each depth x MR, so the microkernel
/// streams it with unit stride. Missing rows in the final block are zero.
void pack_panel(const SnpMatrix& snps, PackSource source,
                std::size_t row_begin, std::size_t rows, std::size_t k_begin,
                std::size_t depth, std::size_t reg_block, std::uint8_t* packed) {
  const std::size_t blocks = (rows + reg_block - 1) / reg_block;
  std::memset(packed, 0, blocks * reg_block * depth);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t block = r / reg_block;
    const std::size_t lane = r % reg_block;
    const std::uint64_t* words = source == PackSource::Data
                                     ? snps.row(row_begin + r)
                                     : snps.mask(row_begin + r);
    std::uint8_t* dst = packed + block * reg_block * depth;
    for (std::size_t k = 0; k < depth; ++k) {
      const std::size_t sample = k_begin + k;
      dst[k * reg_block + lane] =
          static_cast<std::uint8_t>((words[sample / 64] >> (sample % 64)) & 1ull);
    }
  }
}

/// MR x NR microkernel: accumulates depth rank-1 updates into the int32 tile.
/// a: depth x MR interleaved, b: depth x NR interleaved. Operands are 0/1
/// bits, so the rank-1 update ai * bk[j] degenerates to a predicated add:
/// widen bk once per k and add it into the rows whose a-lane is set. The
/// inner j loop is a fixed-trip-count u8->i32 widening add with unit stride —
/// exactly the shape the autovectorizer turns into packed adds — and the
/// multiply leaves the loop entirely.
void microkernel(const std::uint8_t* a, const std::uint8_t* b, std::size_t depth,
                 std::int32_t* c, std::size_t ldc) {
  std::int32_t acc[MR][NR] = {};
  for (std::size_t k = 0; k < depth; ++k) {
    const std::uint8_t* ak = a + k * MR;
    const std::uint8_t* bk = b + k * NR;
    std::int32_t bw[NR];
    for (std::size_t j = 0; j < NR; ++j) bw[j] = bk[j];
    for (std::size_t i = 0; i < MR; ++i) {
      if (ak[i]) {
        for (std::size_t j = 0; j < NR; ++j) acc[i][j] += bw[j];
      }
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) {
      c[i * ldc + j] += acc[i][j];
    }
  }
}

/// Edge-tile variant writing only the valid m x n sub-tile.
void microkernel_edge(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t depth, std::int32_t* c, std::size_t ldc,
                      std::size_t m, std::size_t n) {
  std::int32_t acc[MR][NR] = {};
  for (std::size_t k = 0; k < depth; ++k) {
    const std::uint8_t* ak = a + k * MR;
    const std::uint8_t* bk = b + k * NR;
    std::int32_t bw[NR] = {};
    for (std::size_t j = 0; j < n; ++j) bw[j] = bk[j];
    for (std::size_t i = 0; i < m; ++i) {
      if (ak[i]) {
        for (std::size_t j = 0; j < n; ++j) acc[i][j] += bw[j];
      }
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] += acc[i][j];
    }
  }
}

}  // namespace

void pair_count_block_gemm(const SnpMatrix& snps, std::size_t i_begin,
                           std::size_t i_end, std::size_t j_begin,
                           std::size_t j_end, std::int32_t* out,
                           std::size_t ld_out, const GemmBlocking& blocking,
                           PackSource a_source, PackSource b_source) {
  const util::trace::Span span("ld.gemm.pair_count_block");
  const std::size_t m_total = i_end - i_begin;
  const std::size_t n_total = j_end - j_begin;
  const std::size_t k_total = snps.num_samples();
  if (m_total == 0 || n_total == 0) return;
  pair_counts_counter().add(static_cast<std::uint64_t>(m_total) * n_total);

  for (std::size_t r = 0; r < m_total; ++r) {
    std::memset(out + r * ld_out, 0, n_total * sizeof(std::int32_t));
  }

  // Per-thread packing scratch (engines calling in here are shared across
  // scan workers); assign() preserves capacity, so panel buffers stop being
  // a per-call heap allocation.
  static thread_local std::vector<std::uint8_t> a_panel;
  static thread_local std::vector<std::uint8_t> b_panel;
  a_panel.resize(((blocking.mc + MR - 1) / MR) * MR * blocking.kc);
  b_panel.resize(((blocking.nc + NR - 1) / NR) * NR * blocking.kc);

  // Loop 5 (NC columns) -> loop 4 (KC depth) -> loop 3 (MC rows)
  //   -> loop 2 (NR slivers) -> loop 1 (MR slivers) -> microkernel.
  for (std::size_t jc = 0; jc < n_total; jc += blocking.nc) {
    const std::size_t nc = std::min(blocking.nc, n_total - jc);
    for (std::size_t pc = 0; pc < k_total; pc += blocking.kc) {
      const std::size_t kc = std::min(blocking.kc, k_total - pc);
      pack_panel(snps, b_source, j_begin + jc, nc, pc, kc, NR, b_panel.data());
      for (std::size_t ic = 0; ic < m_total; ic += blocking.mc) {
        const std::size_t mc = std::min(blocking.mc, m_total - ic);
        pack_panel(snps, a_source, i_begin + ic, mc, pc, kc, MR, a_panel.data());
        const std::size_t m_blocks = (mc + MR - 1) / MR;
        const std::size_t n_blocks = (nc + NR - 1) / NR;
        for (std::size_t jb = 0; jb < n_blocks; ++jb) {
          const std::uint8_t* b_sliver = b_panel.data() + jb * NR * kc;
          const std::size_t n_valid = std::min(NR, nc - jb * NR);
          for (std::size_t ib = 0; ib < m_blocks; ++ib) {
            const std::uint8_t* a_sliver = a_panel.data() + ib * MR * kc;
            const std::size_t m_valid = std::min(MR, mc - ib * MR);
            std::int32_t* c_tile =
                out + (ic + ib * MR) * ld_out + (jc + jb * NR);
            if (m_valid == MR && n_valid == NR) {
              microkernel(a_sliver, b_sliver, kc, c_tile, ld_out);
            } else {
              microkernel_edge(a_sliver, b_sliver, kc, c_tile, ld_out, m_valid,
                               n_valid);
            }
          }
        }
      }
    }
  }
}

void pair_count_block_popcount(const SnpMatrix& snps, std::size_t i_begin,
                               std::size_t i_end, std::size_t j_begin,
                               std::size_t j_end, std::int32_t* out,
                               std::size_t ld_out) {
  const util::trace::Span span("ld.popcount.pair_count_block");
  if (i_end > i_begin && j_end > j_begin) {
    pair_counts_counter().add(static_cast<std::uint64_t>(i_end - i_begin) *
                              (j_end - j_begin));
  }
  for (std::size_t i = i_begin; i < i_end; ++i) {
    std::int32_t* row = out + (i - i_begin) * ld_out;
    for (std::size_t j = j_begin; j < j_end; ++j) {
      if (j + kBlockPrefetchRows < j_end) {
        util::prefetch_read(snps.row(j + kBlockPrefetchRows));
      }
      row[j - j_begin] = snps.pair_count(i, j);
    }
  }
}

}  // namespace omega::ld
