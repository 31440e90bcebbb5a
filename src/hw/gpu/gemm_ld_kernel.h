#pragma once
// GPU LD kernel: the SNP-comparison framework of Binder et al. (IPDPSW'19)
// that the paper integrates for the LD half of GPU-accelerated OmegaPlus.
// Pairwise counts are cast as a blocked matrix product C = A * B^T over the
// compressed SNP representation; on the simulated device each work-group
// owns a TILE x TILE block of C and each work-item produces one count with a
// word-wise AND+popcount loop (the compressed-data analogue of the GEMM
// k-loop).
//
// GpuLdEngine plugs this into the scanner as an ld::LdEngine, giving the
// "complete GPU-accelerated OmegaPlus" configuration: GPU LD (this kernel) +
// GPU omega (omega_kernels.h), exactly the released tool's division of
// labour (paper Fig. 3). It is the paper's GPU LD kernel and is reached only
// through sweep::detect_sweeps(Backend::GpuSim); the CPU scan path uses
// ld::PackedLd. The byte-panel CPU GEMM cast of the same counts is a test
// and bench reference outside the library (support/ld_reference/gemm.h),
// which shares this header's PackSource operand selector.

#include <cstdint>

#include "hw/device_specs.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "par/thread_pool.h"

namespace omega::hw::gpu {

/// Which per-site bit vector an operand reads: the (pre-masked) derived
/// indicator, or the validity mask. Pairwise-complete counting with missing
/// data needs all four Data/Mask combinations.
enum class PackSource { Data, Mask };

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
