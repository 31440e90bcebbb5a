#pragma once
// The two CPU LD engines the library no longer ships, kept as references.
// Both produce r2 bitwise equal to ld::PackedLd, the one CPU engine the scan
// path selects; tests use them as independent oracles for it and the benches
// time against them:
//   * PopcountLd — bit-parallel AND+popcount per pair, OmegaPlus's CPU LD
//                  path (the paper's CPU baseline);
//   * GemmLd     — BLIS-style blocked GEMM over 0/1 byte panels, the dense-
//                  linear-algebra cast of the GPU LD kernel (ld_reference/
//                  gemm.h).
// Plug one into a scan through core::ScannerOptions::ld_factory.

#include <string>

#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "ld_reference/gemm.h"

namespace omega::ld {

/// AND+popcount engine over the bit-packed matrix (non-owning view).
class PopcountLd final : public LdEngine {
 public:
  explicit PopcountLd(const SnpMatrix& snps) : snps_(snps) {}
  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return "popcount"; }
  [[nodiscard]] std::size_t num_sites() const override { return snps_.num_sites(); }

 private:
  const SnpMatrix& snps_;
};

/// Blocked-GEMM engine (non-owning view).
class GemmLd final : public LdEngine {
 public:
  explicit GemmLd(const SnpMatrix& snps, GemmBlocking blocking = {})
      : snps_(snps), blocking_(blocking) {}
  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return "gemm"; }
  [[nodiscard]] std::size_t num_sites() const override { return snps_.num_sites(); }

 private:
  const SnpMatrix& snps_;
  GemmBlocking blocking_;
};

}  // namespace omega::ld
