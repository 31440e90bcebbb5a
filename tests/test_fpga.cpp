// Tests for the FPGA simulator: pipeline latency and II=1 behaviour,
// arithmetic agreement with the GPU kernels, the cycle model's asymptotics
// (Figs. 10/11 anchors), the Table I resource model, and the backend inside
// the scanner.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dp_matrix.h"
#include "core/omega_math.h"
#include "core/scanner.h"
#include "hw/device_specs.h"
#include "hw/fpga/cycle_model.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/fpga/pipeline.h"
#include "hw/fpga/resource_model.h"
#include "hw/gpu/omega_kernels.h"
#include "par/thread_pool.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "sim/dataset_factory.h"

namespace {

using omega::hw::fpga::OmegaPipeline;
using omega::hw::fpga::PipelineInput;

PipelineInput sample_input(int i) {
  PipelineInput input;
  input.left_sum = 1.0f + 0.1f * static_cast<float>(i);
  input.right_sum = 0.5f + 0.05f * static_cast<float>(i);
  input.total_sum = input.left_sum + input.right_sum + 0.3f;
  input.l = 3 + static_cast<std::uint32_t>(i % 4);
  input.r = 2 + static_cast<std::uint32_t>(i % 3);
  input.k = static_cast<float>(omega::core::choose2(input.l));
  input.m = static_cast<float>(omega::core::choose2(input.r));
  input.tag = static_cast<std::uint64_t>(i);
  return input;
}

TEST(Pipeline, LatencyAndInitiationInterval) {
  OmegaPipeline pipeline;
  // Feed two back-to-back inputs; outputs must appear exactly one cycle
  // apart after the pipeline latency.
  const PipelineInput first = sample_input(0);
  const PipelineInput second = sample_input(1);
  int first_out = -1, second_out = -1;
  for (int cycle = 0; cycle < OmegaPipeline::kPipelineDepth + 10; ++cycle) {
    const PipelineInput* input = nullptr;
    if (cycle == 0) input = &first;
    if (cycle == 1) input = &second;
    const auto out = pipeline.tick(input);
    if (out && out->tag == 0 && first_out < 0) first_out = cycle;
    if (out && out->tag == 1 && second_out < 0) second_out = cycle;
  }
  ASSERT_GE(first_out, OmegaPipeline::kPipelineDepth);
  EXPECT_EQ(second_out, first_out + 1);  // II = 1
}

TEST(Pipeline, MatchesReferenceArithmetic) {
  OmegaPipeline pipeline;
  std::vector<PipelineInput> inputs;
  for (int i = 0; i < 200; ++i) inputs.push_back(sample_input(i));
  std::vector<float> outputs(inputs.size(), -1.0f);
  std::size_t fed = 0;
  while (true) {
    const PipelineInput* input = fed < inputs.size() ? &inputs[fed] : nullptr;
    if (input != nullptr) ++fed;
    const auto out = pipeline.tick(input);
    if (out) outputs[static_cast<std::size_t>(out->tag)] = out->omega;
    if (fed == inputs.size() && pipeline.drained()) break;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const float expected = omega::hw::fpga::pipeline_arithmetic(inputs[i]);
    ASSERT_EQ(outputs[i], expected) << i;
    // And the arithmetic itself equals the shared float reference (cross sum
    // formed symmetrically, as the datapath does; small cancellation noise
    // is amplified through the division, hence the 1e-4 band).
    const float reference = omega::core::omega_from_sums_f(
        inputs[i].left_sum, inputs[i].right_sum,
        inputs[i].total_sum - (inputs[i].left_sum + inputs[i].right_sum),
        inputs[i].l, inputs[i].r);
    ASSERT_NEAR(outputs[i], reference, std::abs(reference) * 1e-4f);
  }
}

TEST(Pipeline, BubblesPreserveOrder) {
  OmegaPipeline pipeline;
  std::vector<std::uint64_t> tags;
  int fed = 0;
  for (int cycle = 0; cycle < 600 && tags.size() < 5; ++cycle) {
    PipelineInput input = sample_input(fed);
    // Inject an input only every third cycle (bubbles in between).
    const bool feed = (cycle % 3 == 0) && fed < 5;
    const auto out = pipeline.tick(feed ? &input : nullptr);
    if (feed) ++fed;
    if (out) tags.push_back(out->tag);
  }
  ASSERT_EQ(tags.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(tags[i], i);
}

// ---------------------------------------------------------------------------
// Cycle model
// ---------------------------------------------------------------------------

TEST(CycleModel, ApproachesPeakThroughput) {
  for (const auto& spec : {omega::hw::zcu102(), omega::hw::alveo_u200()}) {
    const double peak = spec.peak_omega_per_s();
    const double at_huge = omega::hw::fpga::invocation_throughput(
        spec, 10'000'000);
    EXPECT_GT(at_huge, 0.99 * peak) << spec.name;
    EXPECT_LE(at_huge, peak) << spec.name;
  }
}

TEST(CycleModel, NinetyPercentPointsMatchFigures10And11) {
  // Fig. 10: ZCU102 reaches ~90% of max within the evaluated range of up to
  // 4,500 right-side iterations.
  const auto zcu = omega::hw::zcu102();
  EXPECT_GE(omega::hw::fpga::invocation_throughput(zcu, 4'500),
            0.89 * zcu.peak_omega_per_s());
  EXPECT_LT(omega::hw::fpga::invocation_throughput(zcu, 1'000),
            0.89 * zcu.peak_omega_per_s());
  // Fig. 11: Alveo U200 reaches ~90% near 30,500 iterations.
  const auto alveo = omega::hw::alveo_u200();
  EXPECT_GE(omega::hw::fpga::invocation_throughput(alveo, 30'500),
            0.89 * alveo.peak_omega_per_s());
  EXPECT_LT(omega::hw::fpga::invocation_throughput(alveo, 8'000),
            0.89 * alveo.peak_omega_per_s());
}

TEST(CycleModel, PositionCyclesAccounting) {
  const auto spec = omega::hw::alveo_u200();  // U = 32
  const auto cycles = omega::hw::fpga::position_cycles(spec, 10, 100, false);
  // 100 = 3*32 + 4: hardware takes 96 per outer iteration, 4 to software.
  EXPECT_EQ(cycles.hw_omegas, 10u * 96u);
  EXPECT_EQ(cycles.sw_omegas, 10u * 4u);
  EXPECT_EQ(cycles.stall_factor, 1.0);
  EXPECT_EQ(cycles.hw_cycles,
            static_cast<std::uint64_t>(spec.pipeline_latency_cycles +
                                       spec.prefetch_cycles) +
                10u * 3u);
}

TEST(CycleModel, DramStreamingThrottles) {
  const auto spec = omega::hw::alveo_u200();
  const auto on_chip = omega::hw::fpga::position_cycles(spec, 50, 3'200, false);
  const auto dram = omega::hw::fpga::position_cycles(spec, 50, 3'200, true);
  EXPECT_GE(dram.stall_factor, 1.0);
  EXPECT_GE(dram.hw_cycles, on_chip.hw_cycles);
  // 32 pipelines * 4 B * 250 MHz = 32 GB/s demand vs 19 GB/s effective.
  EXPECT_NEAR(dram.stall_factor, 32.0 / 19.0, 1e-9);
}

TEST(CycleModel, EmptyPositionIsFree) {
  const auto spec = omega::hw::zcu102();
  const auto cycles = omega::hw::fpga::position_cycles(spec, 0, 100, true);
  EXPECT_EQ(cycles.hw_cycles, 0u);
  EXPECT_EQ(cycles.hw_omegas, 0u);
}

// ---------------------------------------------------------------------------
// Resource model (Table I)
// ---------------------------------------------------------------------------

TEST(ResourceModel, ReproducesTableI) {
  // Published utilization: ZCU102 @ U=4: BRAM 36, DSP 48, FF 12003,
  // LUT 12847. Alveo @ U=32: BRAM 40, DSP 215, FF 50841, LUT 50584.
  const auto zcu_rows = omega::hw::fpga::utilization(omega::hw::zcu102());
  EXPECT_NEAR(zcu_rows[0].used, 36, 1.0);
  EXPECT_NEAR(zcu_rows[1].used, 48, 1.0);
  EXPECT_NEAR(zcu_rows[2].used, 12003, 60);
  EXPECT_NEAR(zcu_rows[3].used, 12847, 60);
  // Percentages as printed in Table I.
  EXPECT_NEAR(zcu_rows[0].percent(), 1.97, 0.15);
  EXPECT_NEAR(zcu_rows[1].percent(), 1.90, 0.15);

  const auto alveo_rows = omega::hw::fpga::utilization(omega::hw::alveo_u200());
  EXPECT_NEAR(alveo_rows[0].used, 40, 1.0);
  EXPECT_NEAR(alveo_rows[1].used, 215, 2.0);
  EXPECT_NEAR(alveo_rows[2].used, 50841, 300);
  EXPECT_NEAR(alveo_rows[3].used, 50584, 300);
  EXPECT_NEAR(alveo_rows[0].percent(), 0.93, 0.1);
  EXPECT_NEAR(alveo_rows[1].percent(), 3.14, 0.2);
}

TEST(ResourceModel, UtilizationScalesWithUnroll) {
  const auto spec = omega::hw::alveo_u200();
  const auto at8 = omega::hw::fpga::utilization_at(spec, 8);
  const auto at64 = omega::hw::fpga::utilization_at(spec, 64);
  for (std::size_t r = 0; r < at8.size(); ++r) {
    EXPECT_LT(at8[r].used, at64[r].used);
  }
}

TEST(ResourceModel, MaxUnrollIsPowerOfTwoAndFits) {
  for (const auto& spec : {omega::hw::zcu102(), omega::hw::alveo_u200()}) {
    const int max_unroll = omega::hw::fpga::max_unroll_factor(spec);
    EXPECT_GE(max_unroll, spec.unroll_factor) << spec.name;
    for (const auto& row : omega::hw::fpga::utilization_at(spec, max_unroll)) {
      EXPECT_LE(row.used, 0.8 * row.available) << spec.name << " " << row.resource;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend in the scanner
// ---------------------------------------------------------------------------

TEST(FpgaBackend, ScanMatchesCpu) {
  const auto dataset = omega::sim::make_dataset({.snps = 110,
                                                 .samples = 26,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 18.0,
                                                 .seed = 91});
  omega::core::ScannerOptions options;
  options.config.grid_size = 8;
  options.config.max_window = 300'000;
  options.config.min_window = 10'000;

  const auto cpu = omega::core::scan(dataset, options);

  omega::hw::fpga::FpgaOmegaBackend backend{omega::hw::zcu102()};
  const auto fpga = omega::core::scan(
      dataset, options, [&] { return omega::core::borrow_backend(backend); });
  for (std::size_t g = 0; g < cpu.scores.size(); ++g) {
    ASSERT_NEAR(cpu.scores[g].max_omega, fpga.scores[g].max_omega,
                1e-4 * (1.0 + cpu.scores[g].max_omega))
        << "grid " << g;
  }
  const auto& accounting = backend.accounting();
  EXPECT_EQ(accounting.hw_omegas + accounting.sw_omegas,
            cpu.profile.omega_evaluations);
  EXPECT_GT(accounting.modeled_total_seconds(), 0.0);
}

TEST(FpgaBackend, MatchesGpuKernelsBitwise) {
  // FPGA pipeline and GPU kernels implement the same float expression in the
  // same order; their per-position maxima must be bit-identical.
  const auto dataset = omega::sim::make_dataset({.snps = 70,
                                                 .samples = 22,
                                                 .locus_length_bp = 1'000'000,
                                                 .rho = 8.0,
                                                 .seed = 92});
  omega::core::OmegaConfig config;
  config.grid_size = 5;
  config.max_window = 400'000;
  config.min_window = 20'000;
  const auto grid = omega::core::build_grid(dataset, config);
  const omega::ld::SnpMatrix snps(dataset);
  const omega::ld::PopcountLd engine(snps);
  omega::par::ThreadPool pool(2);

  omega::hw::fpga::FpgaOmegaBackend fpga(omega::hw::zcu102());
  for (const auto& position : grid) {
    if (!position.valid) continue;
    omega::core::DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
    const auto buffers = omega::core::pack_position(m, position);
    const auto gpu = omega::hw::gpu::run_kernel1(pool, buffers, 64);
    const auto fpga_result = fpga.max_omega(m, position);
    ASSERT_EQ(static_cast<double>(gpu.max_omega), fpga_result.max_omega);
  }
}

}  // namespace
