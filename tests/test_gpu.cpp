// Tests for the GPU execution-model simulator: NDRange semantics, functional
// equivalence of Kernel I / Kernel II / the CPU loop, the dynamic dispatch
// threshold (Eq. 4), the timing model's qualitative properties, and the full
// backend inside the scanner.

#include <gtest/gtest.h>

#include <atomic>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_search.h"
#include "core/scanner.h"
#include "hw/device_specs.h"
#include "hw/gpu/gpu_backend.h"
#include "hw/gpu/ndrange.h"
#include "hw/gpu/omega_kernels.h"
#include "hw/gpu/timing_model.h"
#include "hw/ld_models.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "ld_reference/gemm.h"
#include "ld_reference/gpu_ld.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/prng.h"

namespace {

using omega::hw::gpu::KernelChoice;

TEST(NdRange, PaddingAndGroups) {
  omega::hw::gpu::NdRange range;
  range.global_size = 1000;
  range.local_size = 256;
  EXPECT_EQ(range.padded_global(), 1024u);
  EXPECT_EQ(range.num_groups(), 4u);
}

TEST(NdRange, ExecutesEveryWorkItemOnce) {
  omega::par::ThreadPool pool(3);
  omega::hw::gpu::NdRange range;
  range.global_size = 777;
  range.local_size = 64;
  std::vector<std::atomic<int>> hits(range.padded_global());
  omega::hw::gpu::enqueue_ndrange(pool, range, [&](const omega::hw::gpu::WorkItem& item) {
    EXPECT_EQ(item.global_id, item.group_id * item.local_size + item.local_id);
    hits[item.global_id].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

struct KernelFixture : ::testing::Test {
  void SetUp() override {
    dataset = omega::sim::make_dataset({.snps = 120,
                                        .samples = 32,
                                        .locus_length_bp = 1'000'000,
                                        .rho = 20.0,
                                        .seed = 77});
    config.grid_size = 6;
    config.max_window = 400'000;
    config.min_window = 10'000;
    grid = omega::core::build_grid(dataset, config);
    snps = std::make_unique<omega::ld::SnpMatrix>(dataset);
    engine = std::make_unique<omega::ld::PopcountLd>(*snps);
  }

  omega::io::Dataset dataset;
  omega::core::OmegaConfig config;
  std::vector<omega::core::GridPosition> grid;
  std::unique_ptr<omega::ld::SnpMatrix> snps;
  std::unique_ptr<omega::ld::PopcountLd> engine;
  omega::par::ThreadPool pool{2};
};

TEST_F(KernelFixture, KernelsAgreeWithEachOtherExactly) {
  for (const auto& position : grid) {
    if (!position.valid) continue;
    omega::core::DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, *engine);
    const auto buffers = omega::core::pack_position(m, position);

    const auto k1 = omega::hw::gpu::run_kernel1(pool, buffers, 64);
    const auto k2 = omega::hw::gpu::run_kernel2(pool, buffers, 64, 37);
    const auto k2_wide = omega::hw::gpu::run_kernel2(pool, buffers, 128, 4096);
    // Identical float arithmetic and tie-breaking: bitwise identical results
    // regardless of the work decomposition.
    ASSERT_EQ(k1.max_omega, k2.max_omega);
    ASSERT_EQ(k1.flat_index, k2.flat_index);
    ASSERT_EQ(k1.max_omega, k2_wide.max_omega);
    ASSERT_EQ(k1.flat_index, k2_wide.flat_index);
    ASSERT_EQ(k1.evaluated, buffers.combinations());
  }
}

TEST_F(KernelFixture, KernelsMatchCpuSearch) {
  for (const auto& position : grid) {
    if (!position.valid) continue;
    omega::core::DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, *engine);
    const auto buffers = omega::core::pack_position(m, position);
    const auto gpu = omega::hw::gpu::run_kernel1(pool, buffers, 64);
    const auto cpu = omega::core::max_omega_search(m, position);
    ASSERT_NEAR(static_cast<double>(gpu.max_omega), cpu.max_omega,
                1e-4 * (1.0 + cpu.max_omega));
  }
}

TEST(GpuDispatch, ThresholdFollowsEq4) {
  const auto k80 = omega::hw::tesla_k80();
  EXPECT_EQ(k80.nthr(), 13ull * 32 * 32);
  EXPECT_EQ(omega::hw::gpu::dispatch(k80, k80.nthr() - 1),
            KernelChoice::Kernel1);
  EXPECT_EQ(omega::hw::gpu::dispatch(k80, k80.nthr()),
            KernelChoice::Kernel2);

  const auto radeon = omega::hw::radeon_hd8750m();
  EXPECT_EQ(radeon.nthr(), 6ull * 64 * 32);
}

// Eq. 4 boundary: Kernel I serves exactly the workloads that underfill the
// device (n_omega < Nthr = NCU * Ws * 32); at Nthr and above — where every
// thread has at least one omega — Kernel II takes over. Checked at the
// threshold and one omega either side, on both evaluated devices.
TEST(GpuDispatch, BoundaryAtExactlyNthr) {
  for (const auto& spec :
       {omega::hw::tesla_k80(), omega::hw::radeon_hd8750m()}) {
    const std::uint64_t nthr = spec.nthr();
    EXPECT_EQ(nthr, static_cast<std::uint64_t>(spec.compute_units) *
                        spec.warp_size * 32)
        << spec.name;
    EXPECT_EQ(omega::hw::gpu::dispatch(spec, nthr - 1), KernelChoice::Kernel1)
        << spec.name << ": one omega below the threshold must pick Kernel I";
    EXPECT_EQ(omega::hw::gpu::dispatch(spec, nthr), KernelChoice::Kernel2)
        << spec.name << ": exactly Nthr omegas must pick Kernel II";
    EXPECT_EQ(omega::hw::gpu::dispatch(spec, nthr + 1), KernelChoice::Kernel2)
        << spec.name << ": one omega above the threshold must pick Kernel II";
  }
}

TEST(GpuTiming, KernelTimeIncreasesWithWork) {
  const auto spec = omega::hw::tesla_k80();
  double previous = 0.0;
  for (std::uint64_t n = 1; n <= 1u << 24; n <<= 2) {
    const double t = omega::hw::gpu::kernel_time(spec, KernelChoice::Kernel2, n);
    ASSERT_GT(t, previous);
    previous = t;
  }
}

TEST(GpuTiming, ThroughputSaturatesNearPeak) {
  const auto spec = omega::hw::tesla_k80();
  const std::uint64_t huge = 1ull << 32;
  const double t = omega::hw::gpu::kernel_time(spec, KernelChoice::Kernel2, huge);
  const double throughput = static_cast<double>(huge) / t;
  EXPECT_GT(throughput, 0.95 * spec.peak_k2_omega_per_s);
  EXPECT_LE(throughput, spec.peak_k2_omega_per_s);
}

TEST(GpuTiming, Kernel1WinsSmallKernel2WinsLarge) {
  const auto spec = omega::hw::tesla_k80();
  const double small1 = omega::hw::gpu::kernel_time(spec, KernelChoice::Kernel1, 500);
  const double small2 = omega::hw::gpu::kernel_time(spec, KernelChoice::Kernel2, 500);
  EXPECT_LT(small1, small2);
  const double large1 =
      omega::hw::gpu::kernel_time(spec, KernelChoice::Kernel1, 50'000'000);
  const double large2 =
      omega::hw::gpu::kernel_time(spec, KernelChoice::Kernel2, 50'000'000);
  EXPECT_LT(large2, large1);
}

TEST(GpuTiming, PaddingRoundsUpToWorkgroupGranule) {
  const auto spec = omega::hw::tesla_k80();
  const std::uint64_t granule = spec.workgroup_size * sizeof(float);
  const auto padded = omega::hw::gpu::padded_bytes(spec, 1);
  EXPECT_EQ(padded % granule, 0u);
  EXPECT_GE(padded, granule);
  EXPECT_GE(omega::hw::gpu::padded_bytes(spec, 100'000), 100'000u);
}

TEST(GpuTiming, CompleteCostDecomposes) {
  const auto spec = omega::hw::tesla_k80();
  const auto cost = omega::hw::gpu::complete_position_cost(
      spec, KernelChoice::Kernel2, 1'000'000, 4'000'000);
  EXPECT_GT(cost.prep_s, 0.0);
  EXPECT_GT(cost.transfer_s, 0.0);
  EXPECT_GT(cost.kernel_s, 0.0);
  EXPECT_LE(cost.total_s, cost.prep_s + cost.transfer_s + cost.kernel_s);
  EXPECT_GE(cost.total_s, cost.prep_s + cost.kernel_s);
}

TEST(GpuTiming, PackBandwidthDegradesBeyondLlc) {
  const auto spec = omega::hw::tesla_k80();
  const auto small = omega::hw::gpu::complete_position_cost(
      spec, KernelChoice::Kernel2, 1000, 1 << 16);
  const auto large = omega::hw::gpu::complete_position_cost(
      spec, KernelChoice::Kernel2, 1000, 1 << 28);
  const double small_rate = static_cast<double>(1 << 16) / small.prep_s;
  const double large_rate = static_cast<double>(1 << 28) / large.prep_s;
  EXPECT_LT(large_rate, small_rate);
}

TEST(GpuBackend, ScanMatchesCpuBackend) {
  const auto dataset = omega::sim::make_dataset({.snps = 130,
                                                 .samples = 24,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 15.0,
                                                 .seed = 88});
  omega::core::ScannerOptions options;
  options.config.grid_size = 10;
  options.config.max_window = 300'000;
  options.config.min_window = 10'000;

  const auto cpu = omega::core::scan(dataset, options);

  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  omega::hw::gpu::GpuOmegaBackend backend(spec, pool);
  const auto gpu = omega::core::scan(
      dataset, options, [&] { return omega::core::borrow_backend(backend); });
  ASSERT_EQ(cpu.scores.size(), gpu.scores.size());
  for (std::size_t g = 0; g < cpu.scores.size(); ++g) {
    ASSERT_NEAR(cpu.scores[g].max_omega, gpu.scores[g].max_omega,
                1e-4 * (1.0 + cpu.scores[g].max_omega))
        << "grid " << g;
  }
  const auto& accounting = backend.accounting();
  EXPECT_EQ(accounting.omega_evaluations, cpu.profile.omega_evaluations);
  EXPECT_GT(accounting.modeled_total_seconds, 0.0);
  EXPECT_GT(accounting.bytes_moved, 0u);
  EXPECT_GT(accounting.positions_kernel1 + accounting.positions_kernel2, 0u);
}

TEST(GpuBackend, OrderSwitchIsValueNeutral) {
  const auto dataset = omega::sim::make_dataset({.snps = 90,
                                                 .samples = 20,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 10.0,
                                                 .seed = 89});
  omega::core::ScannerOptions options;
  options.config.grid_size = 7;
  options.config.max_window = 500'000;
  options.config.min_window = 20'000;

  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::radeon_hd8750m();
  auto run = [&](bool order_switch) {
    omega::hw::gpu::GpuBackendOptions gpu_options;
    gpu_options.order_switch = order_switch;
    return omega::core::scan(dataset, options, [&] {
      return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(spec, pool,
                                                               gpu_options);
    });
  };
  const auto with_switch = run(true);
  const auto without_switch = run(false);
  for (std::size_t g = 0; g < with_switch.scores.size(); ++g) {
    ASSERT_DOUBLE_EQ(with_switch.scores[g].max_omega,
                     without_switch.scores[g].max_omega);
    ASSERT_EQ(with_switch.scores[g].best_a, without_switch.scores[g].best_a);
    ASSERT_EQ(with_switch.scores[g].best_b, without_switch.scores[g].best_b);
  }
}

TEST(GpuBackend, ForcedPoliciesAgree) {
  const auto dataset = omega::sim::make_dataset({.snps = 80,
                                                 .samples = 20,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 10.0,
                                                 .seed = 90});
  omega::core::ScannerOptions options;
  options.config.grid_size = 5;
  options.config.max_window = 400'000;
  options.config.min_window = 10'000;

  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  auto run = [&](omega::hw::gpu::KernelPolicy policy) {
    omega::hw::gpu::GpuBackendOptions gpu_options;
    gpu_options.policy = policy;
    return omega::core::scan(dataset, options, [&] {
      return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(spec, pool,
                                                               gpu_options);
    });
  };
  const auto k1 = run(omega::hw::gpu::KernelPolicy::ForceKernel1);
  const auto k2 = run(omega::hw::gpu::KernelPolicy::ForceKernel2);
  for (std::size_t g = 0; g < k1.scores.size(); ++g) {
    ASSERT_DOUBLE_EQ(k1.scores[g].max_omega, k2.scores[g].max_omega);
  }
}

// ---------------------------------------------------------------------------
// GPU LD kernel (Binder et al. SNP-comparison framework on the simulated
// device)
// ---------------------------------------------------------------------------

TEST(GpuLdKernel, MatchesCpuGemmCounts) {
  const auto dataset = omega::sim::make_dataset({.snps = 70,
                                                 .samples = 150,
                                                 .locus_length_bp = 500'000,
                                                 .rho = 10.0,
                                                 .seed = 93});
  const omega::ld::SnpMatrix snps(dataset);
  omega::par::ThreadPool pool(2);
  std::vector<std::int32_t> gpu(40 * 55), cpu(40 * 55);
  omega::hw::gpu::pair_count_block_gpu(pool, snps, 10, 50, 5, 60, gpu.data(), 55);
  omega::ld::pair_count_block_gemm(snps, 10, 50, 5, 60, cpu.data(), 55);
  EXPECT_EQ(gpu, cpu);
}

TEST(GpuLdKernel, OddTileSizesCoverEverything) {
  const auto dataset = omega::sim::make_dataset({.snps = 45,
                                                 .samples = 33,
                                                 .locus_length_bp = 500'000,
                                                 .rho = 5.0,
                                                 .seed = 94});
  const omega::ld::SnpMatrix snps(dataset);
  omega::par::ThreadPool pool(2);
  std::vector<std::int32_t> reference(45 * 45);
  omega::ld::pair_count_block_popcount(snps, 0, 45, 0, 45, reference.data(), 45);
  for (const std::size_t tile : {1, 3, 16, 64}) {
    std::vector<std::int32_t> gpu(45 * 45);
    omega::hw::gpu::pair_count_block_gpu(pool, snps, 0, 45, 0, 45, gpu.data(),
                                         45, omega::ld::PackSource::Data,
                                         omega::ld::PackSource::Data, tile);
    ASSERT_EQ(gpu, reference) << "tile " << tile;
  }
}

TEST(GpuLdEngine, ScanWithGpuLdMatchesPopcountScan) {
  const auto dataset = omega::sim::make_dataset({.snps = 100,
                                                 .samples = 40,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 12.0,
                                                 .seed = 95});
  omega::core::ScannerOptions options;
  options.config.grid_size = 8;
  options.config.max_window = 300'000;
  options.config.min_window = 10'000;
  const auto reference = omega::core::scan(dataset, options);

  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  options.ld_factory = [&](const omega::ld::SnpMatrix& snps) {
    return std::make_unique<omega::hw::gpu::GpuLdEngine>(snps, pool, spec);
  };
  const auto gpu_ld = omega::core::scan(dataset, options);
  ASSERT_EQ(reference.scores.size(), gpu_ld.scores.size());
  for (std::size_t g = 0; g < reference.scores.size(); ++g) {
    // Same counts -> identical float r2 -> identical scan.
    ASSERT_DOUBLE_EQ(reference.scores[g].max_omega, gpu_ld.scores[g].max_omega);
    ASSERT_EQ(reference.scores[g].best_a, gpu_ld.scores[g].best_a);
  }
}

TEST(GpuLdEngine, MissingDataPairwiseComplete) {
  // Inject missing calls and compare against the CPU popcount engine.
  auto base = omega::sim::make_dataset({.snps = 60,
                                        .samples = 80,
                                        .locus_length_bp = 500'000,
                                        .rho = 8.0,
                                        .seed = 96});
  omega::util::Xoshiro256 rng(77);
  std::vector<std::int64_t> positions(base.positions());
  std::vector<std::vector<std::uint8_t>> rows(base.num_sites());
  for (std::size_t s = 0; s < base.num_sites(); ++s) {
    rows[s] = base.site(s);
    for (auto& allele : rows[s]) {
      if (rng.uniform() < 0.1) allele = omega::io::Dataset::kMissing;
    }
  }
  const omega::io::Dataset dataset(std::move(positions), std::move(rows),
                                   base.locus_length_bp());
  const omega::ld::SnpMatrix snps(dataset);
  ASSERT_TRUE(snps.has_missing());

  omega::par::ThreadPool pool(2);
  const omega::hw::gpu::GpuLdEngine gpu_engine(snps, pool, omega::hw::tesla_k80());
  const omega::ld::PopcountLd cpu_engine(snps);
  std::vector<float> gpu(60 * 60), cpu(60 * 60);
  gpu_engine.r2_block(0, 60, 0, 60, gpu.data(), 60);
  cpu_engine.r2_block(0, 60, 0, 60, cpu.data(), 60);
  EXPECT_EQ(gpu, cpu);
  EXPECT_EQ(gpu_engine.accounting().kernel_launches, 4u);
  EXPECT_EQ(gpu_engine.accounting().pairs_computed, 60u * 60u);
}

TEST(GpuLdModel, AnchoredToTableIII) {
  EXPECT_NEAR(omega::hw::gpu_ld_speedup(500), 2.3, 0.5);
  EXPECT_NEAR(omega::hw::gpu_ld_speedup(7'000), 12.5, 2.0);
  EXPECT_NEAR(omega::hw::gpu_ld_speedup(60'000), 38.9, 5.0);
  // Monotone in sample count.
  EXPECT_LT(omega::hw::gpu_ld_speedup(1'000), omega::hw::gpu_ld_speedup(10'000));
}

TEST(FpgaLdModel, InterpolatesPublishedPoints) {
  EXPECT_NEAR(omega::hw::fpga_ld_throughput(500), 535e6, 1e6);
  EXPECT_NEAR(omega::hw::fpga_ld_throughput(7'000), 38.2e6, 1e5);
  EXPECT_NEAR(omega::hw::fpga_ld_throughput(60'000), 4.5e6, 1e5);
  const double mid = omega::hw::fpga_ld_throughput(2'000);
  EXPECT_LT(mid, 535e6);
  EXPECT_GT(mid, 38.2e6);
}

}  // namespace
