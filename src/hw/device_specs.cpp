#include "hw/device_specs.h"

namespace omega::hw {

GpuDeviceSpec radeon_hd8750m() {
  GpuDeviceSpec spec;
  spec.name = "AMD Radeon HD8750M";
  spec.host_cpu = "AMD A10-5757M @ 2.5 GHz";
  spec.compute_units = 6;
  spec.stream_processors = 384;
  spec.warp_size = 64;  // GCN wavefront
  spec.core_clock_hz = 620e6;
  // Calibrated so System I's Fig. 12 curves satisfy: K1 faster at 1,000
  // SNPs; dynamic up to ~2.59x faster than K1 by 20,000 SNPs.
  spec.peak_k1_omega_per_s = 2.65e9;
  spec.peak_k2_omega_per_s = 7.0e9;
  spec.ramp_scale_k1 = 1.8e5;
  spec.ramp_scale_k2 = 1.1e6;
  spec.launch_overhead_k1_s = 12e-6;
  spec.launch_overhead_k2_s = 13.2e-6;  // 1.1x K1: the 10%-at-1,000-SNPs anchor
  spec.pcie_bandwidth_bps = 3.0e9;      // PCIe 2.0-era laptop link, effective
  spec.pcie_latency_s = 12e-6;
  spec.transfer_overlap_hidden = 0.4;
  spec.host_pack_bandwidth_bps = 2.0e9;
  // Effective locality reach of the host packing loop (LLC + TLB/page
  // locality); calibrated so the Fig. 13 droop starts past ~7,000 SNPs
  // (~33 MB of per-position buffers).
  spec.host_llc_bytes = 64.0 * 1024 * 1024;
  spec.pack_cache_beta = 1.0;
  spec.workgroup_size = 256;
  return spec;
}

GpuDeviceSpec tesla_k80() {
  GpuDeviceSpec spec;
  spec.name = "NVIDIA Tesla K80";
  spec.host_cpu = "Intel Xeon E5-2699 v3 @ 2.3 GHz (Colab slice)";
  spec.compute_units = 13;
  spec.stream_processors = 2496;
  spec.warp_size = 32;
  spec.core_clock_hz = 875e6;  // boost clock (Colab enables autoboost)
  // Calibrated anchors (paper §VI-C): K1 plateau ~7 Gω/s, K2 up to
  // 17.3 Gω/s at 20,000 SNPs, dynamic tracking K2, K1 ~10% faster at 1,000
  // SNPs (per-position workloads of ~2.5e5 omegas under the exhaustive
  // Fig. 12 configuration).
  spec.peak_k1_omega_per_s = 7.4e9;
  spec.peak_k2_omega_per_s = 17.6e9;
  spec.ramp_scale_k1 = 2.0e5;
  spec.ramp_scale_k2 = 1.0e6;
  spec.launch_overhead_k1_s = 8e-6;
  spec.launch_overhead_k2_s = 8.8e-6;
  spec.pcie_bandwidth_bps = 6.0e9;  // PCIe 3.0 x16, effective host-pinned
  spec.pcie_latency_s = 8e-6;
  spec.transfer_overlap_hidden = 0.5;
  spec.host_pack_bandwidth_bps = 3.0e9;
  // Effective locality reach of the host packing loop; calibrated to place
  // the Fig. 13 peak near 7,000 SNPs (see EXPERIMENTS.md).
  spec.host_llc_bytes = 64.0 * 1024 * 1024;
  spec.pack_cache_beta = 1.0;
  spec.workgroup_size = 256;
  return spec;
}

FpgaDeviceSpec zcu102() {
  FpgaDeviceSpec spec;
  spec.name = "Zynq UltraScale+ ZCU102";
  spec.logic_cells_k = 600;
  spec.unroll_factor = 4;
  spec.clock_hz = 100e6;
  spec.available = {1824, 2520, 0.55e6, 0.27e6};
  // Fitted to Table I across the two published design points:
  //   BRAM: 36 = base + 4u ; 40 = base + 32u   -> u ~ 0.143, base ~ 35.4
  //   DSP:  48 = base + 4u ; 215 = base + 32u  -> u ~ 5.96,  base ~ 24.1
  //   FF:   12003 / 50841                      -> u ~ 1388,  base ~ 6452
  //   LUT:  12847 / 50584                      -> u ~ 1348,  base ~ 7455
  spec.base_cost = {35.4, 24.1, 6452, 7455};
  spec.per_instance_cost = {0.143, 5.96, 1388, 1348};
  // Structural pipeline depth is 80 stages (see fpga/pipeline.cpp schedule);
  // prefetch/AXI setup absorbs the rest. 90% of U*f at ~4,500 right-side
  // iterations (Fig. 10): N90 = 9 * U * (latency + prefetch) => ~125 cycles.
  spec.pipeline_latency_cycles = 80;
  spec.prefetch_cycles = 45;
  spec.memory_bandwidth_bps = 4.0e9;  // PS DDR4 effective share
  return spec;
}

FpgaDeviceSpec alveo_u200() {
  FpgaDeviceSpec spec;
  spec.name = "Alveo U200";
  spec.logic_cells_k = 892;
  spec.unroll_factor = 32;
  spec.clock_hz = 250e6;
  spec.available = {4320, 6840, 2.4e6, 1.2e6};
  spec.base_cost = {35.4, 24.1, 6452, 7455};
  spec.per_instance_cost = {0.143, 5.96, 1388, 1348};
  // 90% of U*f at ~30,500 iterations (Fig. 11): latency + prefetch ~ 105.
  spec.pipeline_latency_cycles = 80;
  spec.prefetch_cycles = 25;
  spec.memory_bandwidth_bps = 19.0e9;  // one DDR4-2400 bank, effective
  return spec;
}

CpuSpec core_i7_6700hq() { return {"Intel Core i7-6700HQ", 4, 8, 2.6e9}; }

}  // namespace omega::hw
