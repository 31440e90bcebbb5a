#pragma once
// BLIS-style blocked integer GEMM used to cast LD computation as dense linear
// algebra (Alachiotis, Popovici & Low, IPDPSW'16; Binder et al., IPDPSW'19;
// the GPU LD path of the paper). Computes co-occurrence counts
//
//   C[i][j] = sum_k A[i][k] * B[j][k]          (A, B : 0/1 byte matrices)
//
// i.e. C = A * B^T, with the classic 5-loop BLIS structure: KC x MC panel of
// A and KC x NC panel of B are packed into contiguous buffers, then an
// MR x NR register-blocked microkernel accumulates int32 tiles. Packing reads
// directly from the bit-packed SnpMatrix so the unpacked matrix never exists
// in full.
//
// Reference code outside the library: the tests check the simulated GPU
// kernel (ld_reference/gpu_ld.h) and the engines against these counts, and
// the benches time them.

#include <cstdint>
#include <vector>

#include "ld/snp_matrix.h"

namespace omega::ld {

/// Which per-site bit vector an operand reads: the (pre-masked) derived
/// indicator, or the validity mask. Pairwise-complete counting with missing
/// data needs all four Data/Mask combinations.
enum class PackSource { Data, Mask };

struct GemmBlocking {
  // Cache blocking: KC x MC A-panel ~ L2, KC x NR B-sliver ~ L1.
  std::size_t mc = 256;
  std::size_t nc = 512;
  std::size_t kc = 1024;
  // Register blocking of the microkernel.
  static constexpr std::size_t mr = 8;
  static constexpr std::size_t nr = 8;
};

/// Computes the co-occurrence count block
///   out[(i - i_begin) * ld_out + (j - j_begin)] =
///       sum_k A_src(i, k) * B_src(j, k)
/// for i in [i_begin, i_end), j in [j_begin, j_end).
void pair_count_block_gemm(const SnpMatrix& snps, std::size_t i_begin,
                           std::size_t i_end, std::size_t j_begin,
                           std::size_t j_end, std::int32_t* out,
                           std::size_t ld_out,
                           const GemmBlocking& blocking = {},
                           PackSource a_source = PackSource::Data,
                           PackSource b_source = PackSource::Data);

/// Reference implementation (AND+popcount per pair) for cross-validation.
void pair_count_block_popcount(const SnpMatrix& snps, std::size_t i_begin,
                               std::size_t i_end, std::size_t j_begin,
                               std::size_t j_end, std::int32_t* out,
                               std::size_t ld_out);

}  // namespace omega::ld
