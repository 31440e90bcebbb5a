#include "ld_reference/gpu_ld.h"

#include <vector>

#include "hw/gpu/ndrange.h"
#include "util/bits.h"
#include "util/trace.h"

namespace omega::hw::gpu {

void pair_count_block_gpu(par::ThreadPool& pool, const ld::SnpMatrix& snps,
                          std::size_t i0, std::size_t i1, std::size_t j0,
                          std::size_t j1, std::int32_t* out, std::size_t ld_out,
                          PackSource a_source, PackSource b_source,
                          std::size_t tile) {
  const std::size_t m = i1 - i0;
  const std::size_t n = j1 - j0;
  if (m == 0 || n == 0) return;
  const std::size_t words = snps.words_per_site();

  // Work decomposition: one work-item per C element; work-groups are
  // tile x tile blocks laid out row-major across the (padded) C matrix so
  // that a group's items read the same `tile` A rows and B rows (the
  // device's shared-memory tile in the real kernel).
  const std::size_t tiles_i = (m + tile - 1) / tile;
  const std::size_t tiles_j = (n + tile - 1) / tile;
  NdRange range;
  range.global_size = tiles_i * tiles_j * tile * tile;
  range.local_size = tile * tile;

  auto source_row = [&](PackSource source, std::size_t site) {
    return source == PackSource::Data ? snps.row(site) : snps.mask(site);
  };

  enqueue_ndrange(pool, range, [&](const WorkItem& item) {
    const std::size_t tile_index = item.group_id;
    const std::size_t tile_i = tile_index / tiles_j;
    const std::size_t tile_j = tile_index % tiles_j;
    const std::size_t local_i = item.local_id / tile;
    const std::size_t local_j = item.local_id % tile;
    const std::size_t gi = tile_i * tile + local_i;
    const std::size_t gj = tile_j * tile + local_j;
    if (gi >= m || gj >= n) return;  // padding lanes
    const std::uint64_t* a = source_row(a_source, i0 + gi);
    const std::uint64_t* b = source_row(b_source, j0 + gj);
    out[gi * ld_out + gj] =
        static_cast<std::int32_t>(util::and_popcount(a, b, words));
  });
}

GpuLdEngine::GpuLdEngine(const ld::SnpMatrix& snps, par::ThreadPool& pool,
                         GpuDeviceSpec spec)
    : snps_(snps), pool_(pool), spec_(std::move(spec)) {}

void GpuLdEngine::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                           std::size_t j1, float* out, std::size_t ld) const {
  const util::trace::Span span("ld.gpu-gemm.r2_block");
  const std::size_t m = i1 - i0;
  const std::size_t n_cols = j1 - j0;
  if (m == 0 || n_cols == 0) return;
  note_served(static_cast<std::uint64_t>(m) * n_cols);

  std::vector<std::int32_t> nij(m * n_cols);
  pair_count_block_gpu(pool_, snps_, i0, i1, j0, j1, nij.data(), n_cols);
  accounting_.pairs_computed += m * n_cols;
  accounting_.kernel_launches += 1;
  accounting_.bytes_transferred +=
      (m + n_cols) * snps_.words_per_site() * sizeof(std::uint64_t);

  if (snps_.has_missing()) {
    std::vector<std::int32_t> ni(m * n_cols), nj(m * n_cols), n(m * n_cols);
    pair_count_block_gpu(pool_, snps_, i0, i1, j0, j1, ni.data(), n_cols,
                         PackSource::Data, PackSource::Mask);
    pair_count_block_gpu(pool_, snps_, i0, i1, j0, j1, nj.data(), n_cols,
                         PackSource::Mask, PackSource::Data);
    pair_count_block_gpu(pool_, snps_, i0, i1, j0, j1, n.data(), n_cols,
                         PackSource::Mask, PackSource::Mask);
    accounting_.kernel_launches += 3;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n_cols; ++j) {
        const std::size_t idx = i * n_cols + j;
        out[i * ld + j] = ld::r2_from_counts_f(
            {n[idx], ni[idx], nj[idx], nij[idx]});
      }
    }
    return;
  }

  const auto samples = static_cast<std::int32_t>(snps_.num_samples());
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t ni = snps_.derived_count(i0 + i);
    for (std::size_t j = 0; j < n_cols; ++j) {
      out[i * ld + j] = ld::r2_from_counts_f(
          {samples, ni, snps_.derived_count(j0 + j), nij[i * n_cols + j]});
    }
  }
}

}  // namespace omega::hw::gpu
