#pragma once
// GPU LD kernel: the SNP-comparison framework of Binder et al. (IPDPSW'19)
// that the paper integrates for the LD half of GPU-accelerated OmegaPlus.
// Pairwise counts are cast as a blocked matrix product C = A * B^T over the
// compressed SNP representation; on the simulated device each work-group
// owns a TILE x TILE block of C and each work-item produces one count with a
// word-wise AND+popcount loop (the compressed-data analogue of the GEMM
// k-loop).
//
// Reference code outside the library, like the CPU engines next to it: no
// shipped program runs it. GpuLdEngine's r2 are bitwise those of the CPU
// popcount engine (and hence of ld::PackedLd), which the tests check; a
// scan on the simulated GPU computes its LD with the library's packed CPU
// engine.

#include <cstdint>

#include "hw/device_specs.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "ld_reference/gemm.h"
#include "par/thread_pool.h"

namespace omega::hw::gpu {

using ld::PackSource;

/// Computes the pair-count block [i0,i1) x [j0,j1) on the simulated device.
/// Sources select Data/Mask operands.
void pair_count_block_gpu(par::ThreadPool& pool, const ld::SnpMatrix& snps,
                          std::size_t i0, std::size_t i1, std::size_t j0,
                          std::size_t j1, std::int32_t* out, std::size_t ld_out,
                          PackSource a_source = PackSource::Data,
                          PackSource b_source = PackSource::Data,
                          std::size_t tile = 16);

struct GpuLdAccounting {
  std::uint64_t pairs_computed = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t bytes_transferred = 0;  // packed SNP words shipped per block
};

/// ld::LdEngine running on the simulated GPU.
class GpuLdEngine final : public ld::LdEngine {
 public:
  GpuLdEngine(const ld::SnpMatrix& snps, par::ThreadPool& pool,
              GpuDeviceSpec spec);

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return "gpu-gemm"; }
  [[nodiscard]] std::size_t num_sites() const override {
    return snps_.num_sites();
  }

  [[nodiscard]] const GpuLdAccounting& accounting() const noexcept {
    return accounting_;
  }

 private:
  const ld::SnpMatrix& snps_;
  par::ThreadPool& pool_;
  GpuDeviceSpec spec_;
  mutable GpuLdAccounting accounting_;
};

}  // namespace omega::hw::gpu
