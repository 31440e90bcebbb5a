#pragma once
// LD engine interface: supplies r2 values for SNP pairs to the omega DP
// layer. The library ships one CPU engine, ld::PackedLd (ld/packed.h): the
// PLINK-style bit-packed blocked engine with an AVX2 or scalar popcount
// microkernel and a cross-extend panel cache, which core::make_ld_engine
// builds for LdBackendKind::Auto and ::Packed. Beside it live the adapters
// and oracles below — OffsetLd for the streaming scanner and NaiveLd, the
// double-precision reference. The popcount and GEMM engines the paper's
// lineage used, and the GEMM kernel of the paper's GPU on the simulated
// device (GpuLdEngine), survive outside the library as test and bench
// references (support/ld_reference).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ld/r2.h"
#include "ld/snp_matrix.h"

namespace omega::ld {

class LdEngine {
 public:
  virtual ~LdEngine() = default;

  /// Fills out[(i-i0)*ld + (j-j0)] = r2(site i, site j) for the block
  /// [i0,i1) x [j0,j1).
  virtual void r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1, float* out, std::size_t ld) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t num_sites() const = 0;

  /// True when the engine guarantees that every r2 it serves is a finite
  /// float with its sign bit clear, as Eq. (1) from integer counts gives.
  /// core::DpMatrix::extend checks the blocks of engines that do not.
  [[nodiscard]] virtual bool r2_nonnegative() const noexcept { return false; }

  /// r2 values this engine instance has served over its lifetime (per-backend
  /// fetch counter for the observability layer). Thread-safe: multithreaded
  /// scans share one engine across workers.
  [[nodiscard]] std::uint64_t r2_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Single-pair convenience.
  [[nodiscard]] float r2(std::size_t i, std::size_t j) const {
    float value = 0.0f;
    r2_block(i, i + 1, j, j + 1, &value, 1);
    return value;
  }

 protected:
  /// Implementations call this once per r2_block with the block's pair count.
  void note_served(std::uint64_t pairs) const noexcept {
    served_.fetch_add(pairs, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> served_{0};
};

/// Index-translation adapter for the streaming scanner: lets an engine built
/// over one chunk of the alignment serve r2 requests addressed in global SNP
/// indices. The chunk's first site has global index `offset`; every request
/// is shifted down by it. The omega/DP layer is untouched — it keeps global
/// indexing whether the scan is in-memory or streamed, which is what makes
/// the two bitwise comparable.
class OffsetLd final : public LdEngine {
 public:
  /// `inner` serves chunk-local indices [0, inner.num_sites()); the adapter
  /// serves global indices [offset, offset + inner.num_sites()).
  OffsetLd(const LdEngine& inner, std::size_t offset)
      : inner_(inner), offset_(offset) {}

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override {
    // note_served is deliberately not called: the inner engine already
    // counts, and the fetch totals must match the in-memory scan's.
    inner_.r2_block(i0 - offset_, i1 - offset_, j0 - offset_, j1 - offset_,
                    out, ld);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t num_sites() const override {
    return offset_ + inner_.num_sites();
  }
  [[nodiscard]] bool r2_nonnegative() const noexcept override {
    return inner_.r2_nonnegative();
  }

 private:
  const LdEngine& inner_;
  std::size_t offset_;
};

/// Unpacked O(samples)-per-pair oracle straight off the Dataset: r2 in double
/// precision, narrowed to float (LdBackendKind::Naive, `--ld-engine naive`).
class NaiveLd final : public LdEngine {
 public:
  explicit NaiveLd(const io::Dataset& dataset) : dataset_(dataset) {}
  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return "naive"; }
  [[nodiscard]] std::size_t num_sites() const override {
    return dataset_.num_sites();
  }
  /// r2_from_counts is 0 or d²/denom with denom > 0.
  [[nodiscard]] bool r2_nonnegative() const noexcept override { return true; }

 private:
  const io::Dataset& dataset_;
};

}  // namespace omega::ld
