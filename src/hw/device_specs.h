#pragma once
// Device profiles for the accelerator simulators. Structural constants
// (compute units, stream processors, warp sizes, clocks, unroll factors) are
// the published specifications of the paper's evaluation platforms (Tables
// I and II). Model constants marked "calibrated" are fitted so the timing
// models reproduce the paper's reported throughput curves; each records the
// paper location it is anchored to. EXPERIMENTS.md discusses the calibration.

#include <cstdint>
#include <string>

namespace omega::hw {

// ---------------------------------------------------------------------------
// GPU platforms (paper Table II)
// ---------------------------------------------------------------------------

struct GpuDeviceSpec {
  std::string name;
  std::string host_cpu;
  int compute_units = 0;       // CUs (AMD) / SMs (NVIDIA)
  int stream_processors = 0;   // total SPs / CUDA cores
  int warp_size = 32;          // wavefront/warp width Ws
  double core_clock_hz = 0.0;

  // --- timing-model constants -------------------------------------------
  /// Asymptotic kernel-only throughput (omega/s). Calibrated: Kernel II on
  /// the K80 "delivers up to 17.3 Gω/s"; Kernel I plateaus "at around
  /// 7 Gω/s" (paper §VI-C, Fig. 12).
  double peak_k1_omega_per_s = 0.0;
  double peak_k2_omega_per_s = 0.0;
  /// Occupancy ramp: effective rate = peak * n / (n + ramp_scale). Kernel II
  /// needs far more in-flight work to saturate (WILD work-items each loop).
  double ramp_scale_k1 = 0.0;
  double ramp_scale_k2 = 0.0;
  /// Per-enqueue fixed cost (s). Kernel II pays more: padded buffers and the
  /// work-item-load bookkeeping (paper §IV-C). Anchored to "with 1,000 SNPs,
  /// kernel I is 10% faster than kernel II on both systems".
  double launch_overhead_k1_s = 0.0;
  double launch_overhead_k2_s = 0.0;

  /// Host<->device link (PCIe) for the complete-omega model (Fig. 13).
  double pcie_bandwidth_bps = 0.0;  // bytes/s
  double pcie_latency_s = 0.0;
  /// Fraction of transfer time hidden by compute overlap (paper Fig. 14
  /// caption: "part of the data movement overhead is hidden by overlapping
  /// data transfers with kernel execution").
  double transfer_overlap_hidden = 0.5;

  /// Host-side buffer preparation: base packing bandwidth, degraded when the
  /// per-position working set spills the last-level cache (this is what
  /// bends Fig. 13 downward past ~7,000 SNPs).
  double host_pack_bandwidth_bps = 0.0;
  double host_llc_bytes = 0.0;
  double pack_cache_beta = 0.0;  // bw / (1 + beta * log2(bytes / llc))

  /// Padding granularity: buffers are padded to a multiple of the work-group
  /// size (paper §IV-C).
  std::size_t workgroup_size = 256;

  /// Dynamic two-kernel dispatch threshold, Eq. (4): Nthr = NCU * Ws * 32.
  [[nodiscard]] std::uint64_t nthr() const noexcept {
    return static_cast<std::uint64_t>(compute_units) *
           static_cast<std::uint64_t>(warp_size) * 32ull;
  }
};

/// System I: off-the-shelf laptop — AMD A10-5757M APU with a Radeon
/// HD8750M GPU (6 CUs, 384 SPs, wavefront 64).
GpuDeviceSpec radeon_hd8750m();

/// System II: Google Colab — Intel Xeon E5-2699v3 host with an NVIDIA Tesla
/// K80 (13 SMs usable, 2496 CUDA cores, warp 32).
GpuDeviceSpec tesla_k80();

// ---------------------------------------------------------------------------
// FPGA platforms (paper Table I)
// ---------------------------------------------------------------------------

struct FpgaResources {
  double bram = 0;  // BRAM 8K blocks
  double dsp = 0;   // DSP48E slices
  double ff = 0;    // flip-flops
  double lut = 0;   // LUTs
};

struct FpgaDeviceSpec {
  std::string name;
  int logic_cells_k = 0;  // device size (k logic cells), Table I
  int unroll_factor = 0;  // pipeline instances placed (Table I)
  double clock_hz = 0.0;

  /// Total device resources (Table I denominators).
  FpgaResources available;
  /// Resource model: used = base + per_instance * unroll (fitted to the two
  /// published design points, Table I).
  FpgaResources base_cost;
  FpgaResources per_instance_cost;

  // --- cycle-model constants ----------------------------------------------
  /// Latency of the Fig. 8 floating-point pipeline (cycles) plus the RS
  /// prefetch setup per accelerator invocation. Calibrated so the 90%-of-
  /// peak point lands where Figs. 10/11 place it (~4,500 iterations on the
  /// ZCU102, ~30,500 on the Alveo U200).
  int pipeline_latency_cycles = 0;
  int prefetch_cycles = 0;
  /// Effective external-memory bandwidth for streaming TS values when M
  /// resides in DRAM (bytes/s). Caps sustained throughput on real scans;
  /// the Figs. 10/11 microbenchmarks stream from on-chip buffers instead.
  double memory_bandwidth_bps = 0.0;

  /// Peak omega throughput: one omega per pipeline per cycle.
  [[nodiscard]] double peak_omega_per_s() const noexcept {
    return static_cast<double>(unroll_factor) * clock_hz;
  }
  [[nodiscard]] FpgaResources used() const noexcept {
    return {base_cost.bram + per_instance_cost.bram * unroll_factor,
            base_cost.dsp + per_instance_cost.dsp * unroll_factor,
            base_cost.ff + per_instance_cost.ff * unroll_factor,
            base_cost.lut + per_instance_cost.lut * unroll_factor};
  }
};

/// Zynq UltraScale+ ZCU102 evaluation board: unroll 4 @ 100 MHz.
FpgaDeviceSpec zcu102();
/// Alveo U200 data-center accelerator card: unroll 32 @ 250 MHz.
FpgaDeviceSpec alveo_u200();

// ---------------------------------------------------------------------------
// Reference CPUs (paper Table II / §VI-D)
// ---------------------------------------------------------------------------

struct CpuSpec {
  std::string name;
  int cores = 0;
  int threads = 0;
  double base_clock_hz = 0.0;
};

CpuSpec core_i7_6700hq();      // Table IV machine, 4 cores / 8 threads

}  // namespace omega::hw
