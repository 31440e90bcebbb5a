// Heterogeneous co-scheduler tests: HeteroSplit parsing, config validation,
// the deterministic planner (fixed and auto weights, the zero-cost
// equal-fallback guard shared with the span engine), the bitwise-identity
// guarantee against the serial CPU scan (in-memory and streaming, clean and
// under fault injection), faulted-span re-dispatch back to the CPU,
// cpu<->hetero checkpoint resume interoperability, the "hetero" metrics
// block, the dispatch_seconds accounting regression (empty positions must
// still charge their dispatch stage), launch pricing from geometry (planner
// == device seconds, the workload payload == the GPU's charge, skipping the
// pack changes no accounting), and the analyze_workload covered-range mirror
// cross-checked against DpMatrix::extend fetch counters over
// partition-restricted and seam-carryover replay sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/hetero_scheduler.h"
#include "core/metrics_json.h"
#include "core/scan_driver.h"
#include "core/scanner.h"
#include "core/span_engine.h"
#include "core/stream_scanner.h"
#include "core/workload.h"
#include "hw/accelerators.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gpu_backend.h"
#include "io/chunk_reader.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "sweep/detector.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/progress.h"
#include "util/telemetry.h"

namespace {

using omega::core::CpuKernelKind;
using omega::core::DpMatrix;
using omega::core::GridPosition;
using omega::core::HeteroConfig;
using omega::core::HeteroPlan;
using omega::core::HeteroSplit;
using omega::core::OmegaConfig;
using omega::core::ScannerOptions;
using omega::core::ScanResult;
using omega::core::StreamScanOptions;
using omega::core::detail::build_scan_spans;
using omega::core::detail::ScanSpan;
using omega::io::DatasetChunkReader;
using omega::util::CancelReason;
using omega::util::CancelToken;
using omega::util::fault::FaultMode;
using omega::util::fault::FaultPlan;

omega::io::Dataset hetero_dataset(std::uint64_t seed = 6060,
                                  std::size_t sites = 320) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = 24,
                                   .locus_length_bp = 320'000,
                                   .rho = 40.0,
                                   .seed = seed});
}

ScannerOptions hetero_options() {
  ScannerOptions options;
  options.config.grid_size = 48;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 260;
  options.config.min_window = 30;
  return options;
}

void expect_identical(const ScanResult& hetero, const ScanResult& serial) {
  ASSERT_EQ(hetero.scores.size(), serial.scores.size());
  for (std::size_t i = 0; i < hetero.scores.size(); ++i) {
    EXPECT_EQ(hetero.scores[i].position_bp, serial.scores[i].position_bp) << i;
    EXPECT_EQ(hetero.scores[i].valid, serial.scores[i].valid) << i;
    EXPECT_EQ(hetero.scores[i].quarantined, serial.scores[i].quarantined) << i;
    if (!hetero.scores[i].valid) continue;
    EXPECT_EQ(std::memcmp(&hetero.scores[i].max_omega,
                          &serial.scores[i].max_omega, sizeof(double)),
              0)
        << i << ": " << hetero.scores[i].max_omega << " vs "
        << serial.scores[i].max_omega;
    EXPECT_EQ(hetero.scores[i].best_a, serial.scores[i].best_a) << i;
    EXPECT_EQ(hetero.scores[i].best_b, serial.scores[i].best_b) << i;
    EXPECT_EQ(hetero.scores[i].evaluated, serial.scores[i].evaluated) << i;
  }
  EXPECT_EQ(hetero.profile.positions_scanned,
            serial.profile.positions_scanned);
  EXPECT_EQ(hetero.profile.omega_evaluations,
            serial.profile.omega_evaluations);
}

/// The hetero config the CLI and the detector build. Its closures own what
/// they capture (the GPU partition's pool included), so copies are safe.
HeteroConfig make_config(const std::string& split, FaultPlan fault_plan = {}) {
  omega::hw::AcceleratorOptions options;
  options.kind = omega::hw::AcceleratorKind::Hetero;
  options.split = HeteroSplit::parse(split);
  options.fault_plan = fault_plan;
  return *omega::hw::make_accelerator(options).hetero;
}

// ---------------------------------------------------------------------------
// HeteroSplit parsing
// ---------------------------------------------------------------------------

TEST(HeteroSplitParse, AutoAndEmptyMeanAuto) {
  EXPECT_TRUE(HeteroSplit::parse("auto").auto_split);
  EXPECT_TRUE(HeteroSplit::parse("").auto_split);
  EXPECT_EQ(HeteroSplit::parse("auto").name(), "auto");
}

TEST(HeteroSplitParse, FixedTriple) {
  const auto split = HeteroSplit::parse("2:1:0.5");
  EXPECT_FALSE(split.auto_split);
  EXPECT_DOUBLE_EQ(split.cpu, 2.0);
  EXPECT_DOUBLE_EQ(split.gpu, 1.0);
  EXPECT_DOUBLE_EQ(split.fpga, 0.5);
  EXPECT_EQ(split.name(), "2:1:0.5");
  // Zero weights are allowed as long as one partition keeps work.
  EXPECT_DOUBLE_EQ(HeteroSplit::parse("1:0:0").gpu, 0.0);
}

TEST(HeteroSplitParse, NameTrimsTrailingZeros) {
  EXPECT_EQ(HeteroSplit::parse("2.50:1.0:1").name(), "2.5:1:1");
}

TEST(HeteroSplitParse, RejectsMalformedInput) {
  EXPECT_THROW((void)HeteroSplit::parse("1:2"), std::invalid_argument);
  EXPECT_THROW((void)HeteroSplit::parse("1:2:3:4"), std::invalid_argument);
  EXPECT_THROW((void)HeteroSplit::parse("a:b:c"), std::invalid_argument);
  EXPECT_THROW((void)HeteroSplit::parse("1:x:1"), std::invalid_argument);
  EXPECT_THROW((void)HeteroSplit::parse("-1:1:1"), std::invalid_argument);
  EXPECT_THROW((void)HeteroSplit::parse("0:0:0"), std::invalid_argument);
  EXPECT_THROW((void)HeteroSplit::parse("1:1:1extra"), std::invalid_argument);
}

TEST(HeteroConfigValidate, RejectsIncompleteConfigs) {
  HeteroConfig config;  // no cpu model
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = make_config("auto");
  EXPECT_NO_THROW(config.validate());

  HeteroConfig no_factory = make_config("auto");
  no_factory.accelerators[0].backend_factory = nullptr;
  EXPECT_THROW(no_factory.validate(), std::invalid_argument);
  HeteroConfig no_name = make_config("auto");
  no_name.accelerators[1].name.clear();
  EXPECT_THROW(no_name.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

std::vector<GridPosition> planner_grid(const omega::io::Dataset& dataset,
                                       const OmegaConfig& config) {
  return omega::core::build_grid(dataset, config);
}

void expect_segments_tile(const HeteroPlan& plan, std::size_t begin,
                          std::size_t end) {
  ASSERT_FALSE(plan.segments.empty());
  EXPECT_EQ(plan.segments.front().begin, begin);
  std::size_t cursor = begin;
  for (const auto& segment : plan.segments) {
    EXPECT_EQ(segment.begin, cursor);
    EXPECT_GE(segment.end, segment.begin);
    cursor = segment.end;
  }
  EXPECT_EQ(cursor, end);
}

TEST(HeteroPlanner, FixedWeightsSliceProportionallyAndDeterministically) {
  const auto dataset = hetero_dataset();
  const auto options = hetero_options();
  const auto grid = planner_grid(dataset, options.config);
  const auto config = make_config("1:1:1");

  const HeteroPlan plan =
      omega::core::plan_hetero_split(grid, 0, grid.size(), config);
  ASSERT_EQ(plan.segments.size(), 3u);
  EXPECT_FALSE(plan.equal_fallback);
  EXPECT_EQ(plan.segments[0].backend, "cpu");
  expect_segments_tile(plan, 0, grid.size());

  std::uint64_t planned = 0;
  for (const auto& segment : plan.segments) {
    EXPECT_NEAR(segment.weight, 1.0 / 3.0, 1e-12);
    EXPECT_GT(segment.planned_positions, 0u);
    planned += segment.planned_positions;
  }
  std::uint64_t total_valid = 0;
  for (const auto& p : grid) total_valid += p.valid ? 1 : 0;
  EXPECT_EQ(planned, total_valid);

  // Same inputs, same plan — the planner is a pure function of the grid.
  const HeteroPlan replay =
      omega::core::plan_hetero_split(grid, 0, grid.size(), config);
  ASSERT_EQ(replay.segments.size(), plan.segments.size());
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    EXPECT_EQ(replay.segments[s].begin, plan.segments[s].begin);
    EXPECT_EQ(replay.segments[s].end, plan.segments[s].end);
    EXPECT_EQ(replay.segments[s].planned_positions,
              plan.segments[s].planned_positions);
  }
}

TEST(HeteroPlanner, ZeroWeightPartitionsGetEmptySegments) {
  const auto dataset = hetero_dataset();
  const auto options = hetero_options();
  const auto grid = planner_grid(dataset, options.config);

  std::uint64_t total_valid = 0;
  for (const auto& p : grid) total_valid += p.valid ? 1 : 0;

  // Zero-weight partitions may still absorb trailing invalid positions when
  // the boundary walk closes them (cost zero, no work), so assert on the
  // planned valid positions rather than raw segment extents.
  const HeteroPlan cpu_only =
      omega::core::plan_hetero_split(grid, 0, grid.size(),
                                     make_config("1:0:0"));
  ASSERT_EQ(cpu_only.segments.size(), 3u);
  expect_segments_tile(cpu_only, 0, grid.size());
  EXPECT_EQ(cpu_only.segments[0].planned_positions, total_valid);
  EXPECT_EQ(cpu_only.segments[1].planned_positions, 0u);
  EXPECT_EQ(cpu_only.segments[2].planned_positions, 0u);

  const HeteroPlan gpu_only =
      omega::core::plan_hetero_split(grid, 0, grid.size(),
                                     make_config("0:1:0"));
  EXPECT_EQ(gpu_only.segments[0].begin, gpu_only.segments[0].end);
  EXPECT_GT(gpu_only.segments[1].end, gpu_only.segments[1].begin);
  EXPECT_EQ(gpu_only.segments[0].planned_positions, 0u);
  EXPECT_EQ(gpu_only.segments[1].planned_positions, total_valid);
  EXPECT_EQ(gpu_only.segments[2].planned_positions, 0u);
}

TEST(HeteroPlanner, AutoWeightsFollowModeledThroughput) {
  const auto dataset = hetero_dataset();
  const auto options = hetero_options();
  const auto grid = planner_grid(dataset, options.config);

  // One accelerator modeled 9x faster than the CPU: auto weights are the
  // inverse modeled seconds, so it should plan ~90% of the cost.
  HeteroConfig config;
  config.split = HeteroSplit::parse("auto");
  config.cpu_modeled_seconds = [](const GridPosition& p) {
    return p.valid ? 9e-6 * static_cast<double>(p.combinations()) : 0.0;
  };
  omega::core::HeteroPartitionSpec fast;
  fast.name = "fast-sim";
  fast.modeled_seconds = [](const GridPosition& p) {
    return p.valid ? 1e-6 * static_cast<double>(p.combinations()) : 0.0;
  };
  fast.backend_factory = [] {
    return std::make_unique<omega::core::CpuOmegaBackend>(CpuKernelKind::Auto);
  };
  config.accelerators.push_back(std::move(fast));

  const HeteroPlan plan =
      omega::core::plan_hetero_split(grid, 0, grid.size(), config);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_NEAR(plan.segments[0].weight, 0.1, 1e-9);
  EXPECT_NEAR(plan.segments[1].weight, 0.9, 1e-9);
  EXPECT_GT(plan.segments[1].planned_positions,
            plan.segments[0].planned_positions);
  expect_segments_tile(plan, 0, grid.size());
}

// ---------------------------------------------------------------------------
// Zero-cost degenerate grids: the planner and span-engine equal fallback
// ---------------------------------------------------------------------------

/// Valid positions whose estimated cost is exactly zero (collapsed window
/// geometry: zero admissible borders and zero width). The proportional
/// boundary walk would divide by a zero total without the fallback.
std::vector<GridPosition> zero_cost_grid(std::size_t n) {
  std::vector<GridPosition> grid;
  for (std::size_t i = 0; i < n; ++i) {
    GridPosition p;
    p.position_bp = static_cast<std::int64_t>(i);
    p.valid = true;
    p.lo = 1;
    p.hi = 0;
    p.c = 0;
    p.a_max = 0;
    p.b_min = 1;
    grid.push_back(p);
  }
  return grid;
}

TEST(DegenerateGrid, CostIsZeroYetValid) {
  const auto grid = zero_cost_grid(4);
  for (const auto& p : grid) {
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.combinations(), 0u);
    EXPECT_EQ(omega::core::estimate_position_cost(p), 0u);
  }
}

TEST(DegenerateGrid, PlannerFallsBackToEqualPositionCounts) {
  const auto grid = zero_cost_grid(12);
  const auto config = make_config("1:1:1");
  const HeteroPlan plan =
      omega::core::plan_hetero_split(grid, 0, grid.size(), config);
  EXPECT_TRUE(plan.equal_fallback);
  ASSERT_EQ(plan.segments.size(), 3u);
  expect_segments_tile(plan, 0, grid.size());
  // One budget unit per valid position: 12 positions over 3 equal weights.
  for (const auto& segment : plan.segments) {
    EXPECT_EQ(segment.planned_positions, 4u);
  }
  // Deterministic: replay yields identical boundaries.
  const HeteroPlan replay =
      omega::core::plan_hetero_split(grid, 0, grid.size(), config);
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    EXPECT_EQ(replay.segments[s].begin, plan.segments[s].begin);
    EXPECT_EQ(replay.segments[s].end, plan.segments[s].end);
  }
}

TEST(DegenerateGrid, BuildScanSpansFallsBackToEqualCounts) {
  const auto grid = zero_cost_grid(8);
  const auto spans = build_scan_spans(grid, 0, grid.size(), /*workers=*/4);
  ASSERT_FALSE(spans.empty());
  // Spans tile the range and spread the valid positions evenly (one unit of
  // budget each) instead of collapsing into a single span.
  EXPECT_EQ(spans.front().begin, 0u);
  EXPECT_EQ(spans.back().end, grid.size());
  for (std::size_t s = 1; s < spans.size(); ++s) {
    EXPECT_EQ(spans[s].begin, spans[s - 1].end);
  }
  EXPECT_EQ(spans.size(), 8u);  // min(workers * 4, total_valid)
  std::uint64_t total_valid = 0;
  for (const ScanSpan& span : spans) {
    EXPECT_EQ(span.valid_positions, 1u);
    total_valid += span.valid_positions;
  }
  EXPECT_EQ(total_valid, 8u);
  // Deterministic across calls.
  const auto replay = build_scan_spans(grid, 0, grid.size(), 4);
  ASSERT_EQ(replay.size(), spans.size());
  for (std::size_t s = 0; s < spans.size(); ++s) {
    EXPECT_EQ(replay[s].begin, spans[s].begin);
    EXPECT_EQ(replay[s].end, spans[s].end);
  }
}

// ---------------------------------------------------------------------------
// Bitwise identity: hetero == serial CPU, in memory and streaming
// ---------------------------------------------------------------------------

TEST(HeteroIdentity, AutoSplitMatchesSerialCpuBitwise) {
  const auto dataset = hetero_dataset();
  auto options = hetero_options();
  const auto serial = omega::core::scan(dataset, options);

  const HeteroConfig config = make_config("auto");
  options.hetero = &config;
  options.threads = 4;
  const auto hetero = omega::core::scan(dataset, options);
  expect_identical(hetero, serial);

  EXPECT_EQ(hetero.profile.omega_backend, "hetero");
  const auto& stats = hetero.profile.hetero;
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.split, "auto");
  EXPECT_EQ(stats.plans, 1u);
  ASSERT_EQ(stats.partitions.size(), 3u);
  EXPECT_EQ(stats.partitions[0].backend, "cpu");
  std::uint64_t planned = 0, actual = 0;
  for (const auto& partition : stats.partitions) {
    planned += partition.planned_positions;
    actual += partition.actual_positions;
  }
  EXPECT_EQ(planned, serial.profile.positions_scanned);
  EXPECT_EQ(actual, serial.profile.positions_scanned);
}

TEST(HeteroIdentity, EveryFixedSplitMatchesSerialCpuBitwise) {
  const auto dataset = hetero_dataset();
  auto options = hetero_options();
  const auto serial = omega::core::scan(dataset, options);

  for (const char* split : {"1:0:0", "0:1:0", "0:0:1", "3:2:1", "1:4:4"}) {
    const HeteroConfig config = make_config(split);
    options.hetero = &config;
    options.threads = 4;
    const auto hetero = omega::core::scan(dataset, options);
    expect_identical(hetero, serial);
    EXPECT_EQ(hetero.profile.hetero.split, split) << split;
  }
}

TEST(HeteroIdentity, StreamingMatchesSerialStreamBitwise) {
  const auto dataset = hetero_dataset(7171);
  auto options = hetero_options();

  DatasetChunkReader serial_reader(dataset);
  const auto serial = omega::core::stream_scan(serial_reader, options);

  const HeteroConfig config = make_config("auto");
  options.hetero = &config;
  options.threads = 4;
  for (const std::size_t chunk_sites : {1000u, 90u}) {
    StreamScanOptions stream_options;
    stream_options.chunk_sites = chunk_sites;
    DatasetChunkReader reader(dataset);
    const auto hetero =
        omega::core::stream_scan(reader, options, stream_options);
    expect_identical(hetero, serial);
    EXPECT_TRUE(hetero.profile.hetero.enabled);
    // One plan per chunk; seams stay per-worker like the MT engine.
    EXPECT_EQ(hetero.profile.hetero.plans, hetero.profile.stream.chunks);
    EXPECT_EQ(hetero.profile.stream.seam_carryovers, 0u);
  }
}

TEST(HeteroIdentity, TransientFaultsConvergeToCleanScores) {
  const auto dataset = hetero_dataset();
  auto options = hetero_options();
  const auto clean = omega::core::scan(dataset, options);

  FaultPlan plan;
  plan.mode = FaultMode::TransientNan;
  plan.rate = 0.4;
  plan.seed = 33;
  options.recovery.max_retries = 64;
  const HeteroConfig config = make_config("auto", plan);
  options.hetero = &config;
  options.threads = 4;
  const auto hetero = omega::core::scan(dataset, options);

  ASSERT_EQ(hetero.scores.size(), clean.scores.size());
  for (std::size_t i = 0; i < hetero.scores.size(); ++i) {
    EXPECT_EQ(hetero.scores[i].valid, clean.scores[i].valid) << i;
    if (!hetero.scores[i].valid) continue;
    EXPECT_EQ(hetero.scores[i].max_omega, clean.scores[i].max_omega) << i;
    EXPECT_EQ(hetero.scores[i].best_a, clean.scores[i].best_a) << i;
    EXPECT_EQ(hetero.scores[i].best_b, clean.scores[i].best_b) << i;
  }
  EXPECT_EQ(hetero.profile.faults.quarantined_positions, 0u);
  EXPECT_GT(hetero.profile.faults.invalid_results, 0u);
}

// ---------------------------------------------------------------------------
// Re-dispatch: faulted accelerator spans drain on the CPU
// ---------------------------------------------------------------------------

TEST(HeteroRedispatch, ExhaustedRecoveryFaultsSpanBackToCpuNotQuarantine) {
  const auto dataset = hetero_dataset();
  auto options = hetero_options();
  const auto serial = omega::core::scan(dataset, options);

  // Every accelerator launch fails and CPU fallback inside the recovery
  // engine is off, so recovery gives up on the device — the co-scheduler
  // must re-dispatch the span to the CPU partition instead of quarantining.
  FaultPlan plan;
  plan.mode = FaultMode::KernelLaunch;
  plan.rate = 1.0;
  plan.seed = 11;
  options.recovery.fallback_to_cpu = false;
  options.recovery.max_retries = 1;
  HeteroConfig config = make_config("0:1:1", plan);
  options.hetero = &config;
  options.threads = 4;
  const auto hetero = omega::core::scan(dataset, options);

  expect_identical(hetero, serial);
  const auto& stats = hetero.profile.hetero;
  EXPECT_GT(stats.faulted_spans, 0u);
  EXPECT_GT(stats.redispatched_positions, 0u);
  EXPECT_EQ(hetero.profile.faults.quarantined_positions, 0u);
  EXPECT_GT(hetero.profile.faults.errors_caught, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint resume interoperability: cpu <-> hetero both ways
// ---------------------------------------------------------------------------

class CheckpointPath {
 public:
  explicit CheckpointPath(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / decorate(name))
                  .string()) {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }
  ~CheckpointPath() {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  static std::string decorate(const std::string& name) {
    std::string tag;
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      tag = std::string(info->test_suite_name()) + "_" + info->name() + "_";
    }
    return tag + name;
  }

  std::string path_;
};

/// Interrupt a streaming scan under `first`, resume it under `second`, and
/// expect the stitched result to be bitwise identical to an uninterrupted
/// serial CPU stream. Exercises the canonical "cpu" config hash both ways.
void cross_backend_resume(const HeteroConfig* first, const HeteroConfig* second,
                          const std::string& tag) {
  const auto dataset = hetero_dataset(909);
  auto options = hetero_options();
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 90;

  DatasetChunkReader reference_reader(dataset);
  ScannerOptions reference_options = options;
  const auto reference =
      omega::core::stream_scan(reference_reader, reference_options);

  const CheckpointPath ckpt("hetero_resume_" + tag + ".ckpt");
  stream_options.checkpoint_path = ckpt.str();

  CancelToken token;
  omega::util::ProgressReporter progress(
      [&](const omega::util::ProgressUpdate& update) {
        if (update.chunks_done >= 1) token.request(CancelReason::Api);
      },
      /*interval_seconds=*/0.0);
  ScannerOptions interrupted_options = options;
  interrupted_options.hetero = first;
  if (first != nullptr) interrupted_options.threads = 4;
  interrupted_options.cancel = &token;
  interrupted_options.progress = &progress;
  DatasetChunkReader interrupted_reader(dataset);
  const auto interrupted = omega::core::stream_scan(
      interrupted_reader, interrupted_options, stream_options);
  ASSERT_TRUE(interrupted.profile.runtime.partial);
  ASSERT_GT(interrupted.profile.runtime.checkpoints_written, 0u);

  StreamScanOptions resume_options = stream_options;
  resume_options.resume = true;
  ScannerOptions resumed_options = options;
  resumed_options.hetero = second;
  if (second != nullptr) resumed_options.threads = 4;
  DatasetChunkReader resumed_reader(dataset);
  const auto resumed = omega::core::stream_scan(resumed_reader, resumed_options,
                                                resume_options);
  EXPECT_EQ(resumed.profile.runtime.resume_validations, 1u);
  EXPECT_GT(resumed.profile.runtime.chunks_resumed, 0u);
  EXPECT_FALSE(resumed.profile.runtime.partial);
  expect_identical(resumed, reference);
}

TEST(HeteroResume, CpuCheckpointResumesUnderHetero) {
  const HeteroConfig config = make_config("auto");
  cross_backend_resume(nullptr, &config, "cpu_to_hetero");
}

TEST(HeteroResume, HeteroCheckpointResumesUnderCpu) {
  const HeteroConfig config = make_config("auto");
  cross_backend_resume(&config, nullptr, "hetero_to_cpu");
}

TEST(HeteroResume, HeteroCheckpointResumesUnderHetero) {
  // Different split on resume: the split is excluded from the config hash,
  // like the thread count, so this must validate and stitch bitwise too.
  const HeteroConfig first = make_config("auto");
  const HeteroConfig second = make_config("1:1:1");
  cross_backend_resume(&first, &second, "hetero_to_hetero");
}

TEST(HeteroResume, HeteroStatsAccumulateAcrossResume) {
  const auto dataset = hetero_dataset(911);
  auto options = hetero_options();
  const HeteroConfig config = make_config("auto");
  options.hetero = &config;
  options.threads = 4;
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 90;
  const CheckpointPath ckpt("hetero_stats_accumulate.ckpt");
  stream_options.checkpoint_path = ckpt.str();

  CancelToken token;
  omega::util::ProgressReporter progress(
      [&](const omega::util::ProgressUpdate& update) {
        if (update.chunks_done >= 1) token.request(CancelReason::Api);
      },
      0.0);
  ScannerOptions interrupted_options = options;
  interrupted_options.cancel = &token;
  interrupted_options.progress = &progress;
  DatasetChunkReader interrupted_reader(dataset);
  const auto interrupted = omega::core::stream_scan(
      interrupted_reader, interrupted_options, stream_options);
  ASSERT_TRUE(interrupted.profile.runtime.partial);
  const std::uint64_t plans_before = interrupted.profile.hetero.plans;
  ASSERT_GT(plans_before, 0u);

  StreamScanOptions resume_options = stream_options;
  resume_options.resume = true;
  DatasetChunkReader resumed_reader(dataset);
  const auto resumed =
      omega::core::stream_scan(resumed_reader, options, resume_options);
  // The checkpointed plans (first run) plus the resumed run's own plans.
  EXPECT_GT(resumed.profile.hetero.plans, 0u);
  EXPECT_GE(resumed.profile.hetero.plans, plans_before);
  EXPECT_TRUE(resumed.profile.hetero.enabled);
  std::uint64_t actual = 0;
  for (const auto& partition : resumed.profile.hetero.partitions) {
    actual += partition.actual_positions;
  }
  EXPECT_EQ(actual, resumed.profile.positions_scanned);
}

// ---------------------------------------------------------------------------
// Schema "hetero" metrics block (v10, partition rates since v11)
// ---------------------------------------------------------------------------

TEST(HeteroMetrics, SchemaBlockCarriesPartitionTable) {
  const auto dataset = hetero_dataset();
  auto options = hetero_options();
  const HeteroConfig config = make_config("3:2:1");
  options.hetero = &config;
  options.threads = 4;
  const auto result = omega::core::scan(dataset, options);

  const auto doc =
      omega::core::metrics::scan_metrics("hetero-metrics", result.profile);
  const auto parsed = omega::core::metrics::JsonValue::parse(doc.dump());
  EXPECT_EQ(parsed.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& hetero = parsed.at("hetero");
  EXPECT_TRUE(hetero.at("enabled").as_bool());
  EXPECT_EQ(hetero.at("split").as_string(), "3:2:1");
  EXPECT_EQ(hetero.at("plans").as_uint(), 1u);
  const auto& partitions = hetero.at("partitions").items();
  ASSERT_EQ(partitions.size(), 3u);
  EXPECT_EQ(partitions[0].at("backend").as_string(), "cpu");
  double weight_sum = 0.0;
  std::uint64_t actual = 0;
  for (const auto& partition : partitions) {
    weight_sum += partition.at("weight").as_double();
    actual += partition.at("actual_positions").as_uint();
    EXPECT_GE(partition.at("measured_seconds").as_double(), 0.0);
    // v11: one rate observation per partition per plan run.
    EXPECT_EQ(partition.at("rate_observations").as_uint(), 1u);
    EXPECT_GE(partition.at("measured_rate_per_s").as_double(), 0.0);
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  EXPECT_EQ(actual, result.profile.positions_scanned);
}

TEST(HeteroMetrics, CpuScanReportsDisabledBlock) {
  const auto dataset = hetero_dataset();
  const auto result = omega::core::scan(dataset, hetero_options());
  const auto doc =
      omega::core::metrics::scan_metrics("cpu-metrics", result.profile);
  EXPECT_FALSE(doc.at("hetero").at("enabled").as_bool());
  EXPECT_TRUE(doc.at("hetero").at("partitions").items().empty());
}

// ---------------------------------------------------------------------------
// Detector wiring
// ---------------------------------------------------------------------------

TEST(HeteroDetector, BackendHeteroMatchesBackendCpu) {
  const auto dataset = hetero_dataset();
  omega::sweep::DetectorOptions options;
  options.config = hetero_options().config;
  const auto cpu = omega::sweep::detect_sweeps(dataset, options);

  options.backend = omega::sweep::Backend::Hetero;
  options.threads = 4;
  options.hetero_split = "1:1:1";
  const auto hetero = omega::sweep::detect_sweeps(dataset, options);

  EXPECT_EQ(hetero.backend_name, "hetero");
  ASSERT_EQ(hetero.candidates.size(), cpu.candidates.size());
  for (std::size_t i = 0; i < cpu.candidates.size(); ++i) {
    EXPECT_EQ(hetero.candidates[i].position_bp, cpu.candidates[i].position_bp);
    EXPECT_EQ(std::memcmp(&hetero.candidates[i].omega, &cpu.candidates[i].omega,
                          sizeof(double)),
              0);
  }
  EXPECT_TRUE(hetero.profile.hetero.enabled);
}

// ---------------------------------------------------------------------------
// Dispatch accounting regression: empty positions still charge pack cost
// ---------------------------------------------------------------------------

/// A valid position that packs to zero combinations (no admissible left or
/// right borders) without touching the DP matrix — the early-return path
/// that used to leak the GPU dispatch timer.
GridPosition empty_pack_position() {
  GridPosition p;
  p.position_bp = 1;
  p.valid = true;
  p.lo = 1;
  p.hi = 1;
  p.c = 1;
  p.a_max = 0;  // num_left  = a_max - lo + 1 = 0
  p.b_min = 2;  // num_right = hi - b_min + 1 = 0
  return p;
}

/// The dispatch histogram `name` as a scope saw it after 5,000 empty
/// positions on `backend` (the source of profile.stages.dispatch_seconds).
omega::util::telemetry::HistogramSnapshot dispatch_after_empty_positions(
    omega::core::OmegaBackend& backend, const char* name) {
  omega::util::telemetry::Scope scope;
  {
    const omega::util::telemetry::Scope::Enter enter(&scope);
    const DpMatrix m;
    const GridPosition position = empty_pack_position();
    for (int i = 0; i < 5'000; ++i) {
      const auto result = backend.max_omega(m, position);
      EXPECT_EQ(result.evaluated, 0u);
    }
  }
  const auto telemetry = scope.snapshot();
  const auto* dispatch = telemetry.find_histogram(name);
  return dispatch != nullptr ? *dispatch
                             : omega::util::telemetry::HistogramSnapshot{};
}

TEST(DispatchAccounting, GpuChargesDispatchForEmptyPositions) {
  omega::par::ThreadPool pool(1);
  omega::hw::gpu::GpuOmegaBackend backend(omega::hw::tesla_k80(), pool);
  const auto dispatch =
      dispatch_after_empty_positions(backend, "gpu.dispatch_seconds");
  EXPECT_EQ(dispatch.count, 5'000u);
  EXPECT_GT(dispatch.sum, 0.0);
}

TEST(DispatchAccounting, FpgaChargesDispatchForEmptyPositions) {
  omega::hw::fpga::FpgaOmegaBackend backend(omega::hw::alveo_u200());
  const auto dispatch =
      dispatch_after_empty_positions(backend, "fpga.dispatch_seconds");
  EXPECT_EQ(dispatch.count, 5'000u);
  EXPECT_GT(dispatch.sum, 0.0);
}

// ---------------------------------------------------------------------------
// Launch pricing: one cost function per device, from the position's geometry
// ---------------------------------------------------------------------------

void expect_same_seconds(double planned, double accounted,
                         const std::string& what) {
  EXPECT_LE(std::abs(planned - accounted),
            1e-12 * std::max(std::abs(planned), std::abs(accounted)))
      << what << ": planned " << planned << " s, device " << accounted
      << " s";
}

TEST(LaunchPricing, PlannedPartitionSecondsEqualDeviceSeconds) {
  const auto dataset = hetero_dataset();
  for (const char* split : {"auto", "1:2:2"}) {
    auto options = hetero_options();
    const HeteroConfig config = make_config(split);
    options.hetero = &config;
    options.threads = 4;
    const auto result = omega::core::scan(dataset, options);
    const auto& stats = result.profile.hetero;
    ASSERT_EQ(stats.partitions.size(), 3u) << split;
    EXPECT_EQ(stats.redispatched_positions, 0u) << split;
    ASSERT_EQ(stats.partitions[1].backend.rfind("gpu-sim:", 0), 0u);
    ASSERT_EQ(stats.partitions[2].backend.rfind("fpga-sim:", 0), 0u);
    expect_same_seconds(stats.partitions[1].modeled_seconds,
                        result.profile.gpu.modeled_total_seconds,
                        std::string(split) + " gpu");
    expect_same_seconds(stats.partitions[2].modeled_seconds,
                        result.profile.fpga.modeled_seconds,
                        std::string(split) + " fpga");
    if (std::string(split) == "1:2:2") {
      // A fixed split hands both devices work, so the agreement is not 0 == 0.
      EXPECT_GT(result.profile.gpu.modeled_total_seconds, 0.0);
      EXPECT_GT(result.profile.fpga.modeled_seconds, 0.0);
    }
  }
}

TEST(LaunchPricing, WorkloadPayloadIsWhatTheGpuCharges) {
  const auto dataset = hetero_dataset();
  const auto options = hetero_options();
  const auto workload = omega::core::analyze_workload(dataset, options.config);
  const auto spec = omega::hw::tesla_k80();

  std::uint64_t wire_bytes = 0;
  for (const auto& item : workload.positions) {
    const auto launch = omega::hw::gpu::launch_cost(spec, item.geometry);
    EXPECT_EQ(launch.payload_bytes, item.omega_payload_bytes);
    if (item.combinations > 0) {
      wire_bytes += omega::hw::gpu::padded_bytes(spec, item.omega_payload_bytes);
    }
  }
  omega::par::ThreadPool pool(1);
  omega::hw::gpu::GpuOmegaBackend backend(spec, pool);
  (void)omega::core::scan(dataset, options, [&] {
    return omega::core::borrow_backend(backend);
  });
  EXPECT_GT(wire_bytes, 0u);
  EXPECT_EQ(backend.accounting().bytes_moved, wire_bytes);
}

/// Scans once through `backend` and returns its profile.
omega::core::ScanProfile scan_through(omega::core::OmegaBackend& backend) {
  return omega::core::scan(hetero_dataset(), hetero_options(), [&] {
           return omega::core::borrow_backend(backend);
         })
      .profile;
}

TEST(LaunchPricing, GpuWithoutFunctionalKernelAccountsTheSame) {
  // Cap 0 packs nothing and runs no kernel (hetero's setting); a cap above
  // every position packs and runs each one. The accounting must not notice.
  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  omega::hw::gpu::GpuBackendOptions priced_only;
  priced_only.functional_cap = 0;
  omega::hw::gpu::GpuBackendOptions functional;
  functional.functional_cap = ~0ull;
  omega::hw::gpu::GpuOmegaBackend skip(spec, pool, priced_only);
  omega::hw::gpu::GpuOmegaBackend pack(spec, pool, functional);
  const auto skipped = scan_through(skip).gpu;
  const auto packed = scan_through(pack).gpu;

  EXPECT_GT(packed.kernel1_launches + packed.kernel2_launches, 0u);
  EXPECT_EQ(skipped.kernel1_launches, packed.kernel1_launches);
  EXPECT_EQ(skipped.kernel2_launches, packed.kernel2_launches);
  EXPECT_EQ(skipped.kernel1_omegas, packed.kernel1_omegas);
  EXPECT_EQ(skipped.kernel2_omegas, packed.kernel2_omegas);
  EXPECT_EQ(skipped.bytes_moved, packed.bytes_moved);
  EXPECT_EQ(skipped.modeled_kernel_seconds, packed.modeled_kernel_seconds);
  EXPECT_EQ(skipped.modeled_prep_seconds, packed.modeled_prep_seconds);
  EXPECT_EQ(skipped.modeled_transfer_seconds, packed.modeled_transfer_seconds);
  EXPECT_EQ(skipped.modeled_total_seconds, packed.modeled_total_seconds);
}

TEST(LaunchPricing, FpgaWithoutFunctionalKernelAccountsTheSame) {
  const auto spec = omega::hw::alveo_u200();
  omega::hw::fpga::FpgaBackendOptions priced_only;
  priced_only.functional_cap = 0;
  omega::hw::fpga::FpgaBackendOptions functional;
  functional.functional_cap = ~0ull;
  omega::hw::fpga::FpgaOmegaBackend skip(spec, priced_only);
  omega::hw::fpga::FpgaOmegaBackend pack(spec, functional);
  const auto skipped = scan_through(skip).fpga;
  const auto packed = scan_through(pack).fpga;

  EXPECT_GT(packed.pipeline_cycles, 0u);
  EXPECT_EQ(skipped.pipeline_cycles, packed.pipeline_cycles);
  EXPECT_EQ(skipped.stall_cycles, packed.stall_cycles);
  EXPECT_EQ(skipped.hw_omegas, packed.hw_omegas);
  EXPECT_EQ(skipped.sw_omegas, packed.sw_omegas);
  EXPECT_EQ(skipped.modeled_seconds, packed.modeled_seconds);
}

// ---------------------------------------------------------------------------
// Workload covered-range mirror vs DpMatrix::extend fetch counters
// ---------------------------------------------------------------------------

/// Replays the scanner's matrix sequence over [begin, end) with a fresh
/// matrix, returning the exact DpMatrix fetch count. The workload mirror
/// must predict it as r2_without_reuse for the first valid position and
/// r2_with_reuse for every later one — the identity hetero partitions (and
/// the parallel span engine) rely on when they restart matrices mid-grid.
std::uint64_t replay_partition(const omega::core::ScanWorkload& workload,
                               const omega::ld::LdEngine& engine,
                               std::size_t begin, std::size_t end) {
  DpMatrix m;
  bool live = false;
  std::uint64_t previous = 0;
  std::uint64_t expected = 0;
  for (std::size_t g = begin; g < end; ++g) {
    const auto& item = workload.positions[g];
    if (!item.geometry.valid) continue;
    if (!live) {
      m.reset(item.geometry.lo);
      live = true;
      expected = item.r2_without_reuse;
    } else {
      m.relocate(item.geometry.lo);
      expected = item.r2_with_reuse;
    }
    m.extend(item.geometry.hi + 1, engine);
    EXPECT_EQ(m.r2_fetches() - previous, expected)
        << "position " << g << " in partition [" << begin << ", " << end
        << ")";
    previous = m.r2_fetches();
  }
  return m.r2_fetches();
}

TEST(WorkloadCrossCheck, PartitionRestartsMatchDpMatrixExactly) {
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    const auto dataset = hetero_dataset(seed, 240);
    OmegaConfig config = hetero_options().config;
    const auto workload = omega::core::analyze_workload(dataset, config);
    const omega::ld::SnpMatrix snps(dataset);
    const omega::ld::PopcountLd engine(snps);

    const std::size_t n = workload.positions.size();
    // Full-grid serial replay plus the hetero-style contiguous partitions
    // (each restarting a fresh matrix, like an accelerator segment).
    (void)replay_partition(workload, engine, 0, n);
    (void)replay_partition(workload, engine, 0, n / 3);
    (void)replay_partition(workload, engine, n / 3, 2 * n / 3);
    (void)replay_partition(workload, engine, 2 * n / 3, n);
  }
}

TEST(WorkloadCrossCheck, SeamCarryoverKeepsSerialReuseAccounting) {
  const auto dataset = hetero_dataset(54, 240);
  OmegaConfig config = hetero_options().config;
  const auto workload = omega::core::analyze_workload(dataset, config);
  const omega::ld::SnpMatrix snps(dataset);
  const omega::ld::PopcountLd engine(snps);

  // One matrix carried across arbitrary chunk boundaries (the streaming
  // seam): the boundary must not change any per-position fetch count, so
  // the total equals the serial with-reuse mirror.
  const std::size_t n = workload.positions.size();
  DpMatrix m;
  bool live = false;
  std::uint64_t total = 0;
  for (const std::size_t boundary : {n / 4, n / 2, (3 * n) / 4, n}) {
    static std::size_t cursor = 0;
    for (; cursor < boundary; ++cursor) {
      const auto& item = workload.positions[cursor];
      if (!item.geometry.valid) continue;
      if (!live) {
        m.reset(item.geometry.lo);
        live = true;
      } else {
        m.relocate(item.geometry.lo);
      }
      m.extend(item.geometry.hi + 1, engine);
    }
    total = m.r2_fetches();
  }
  EXPECT_EQ(total, workload.total_r2_with_reuse);

  // The serial scanner observes the same mirror end to end.
  ScannerOptions options;
  options.config = config;
  const auto result = omega::core::scan(dataset, options);
  EXPECT_EQ(result.profile.r2_fetched, workload.total_r2_with_reuse);
}

}  // namespace
