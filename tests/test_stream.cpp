// Streaming pipeline tests: chunk-reader contracts (plan validation, chunk
// content vs in-memory slices for all three readers), stream-plan geometry,
// and the headline guarantee — stream_scan is bitwise identical to scan()
// for every backend, chunk size, fault plan, and input format.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/omega_kernel_cpu.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "io/chunk_reader.h"
#include "io/ms_format.h"
#include "io/vcf_lite.h"
#include "sim/dataset_factory.h"
#include "sweep/detector.h"

namespace {

using omega::core::OmegaConfig;
using omega::core::ScannerOptions;
using omega::core::StreamScanOptions;
using omega::io::DatasetChunkReader;
using omega::io::SiteRange;

omega::io::Dataset stream_dataset(std::uint64_t seed, std::size_t sites = 160) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = 24,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 25.0,
                                   .seed = seed});
}

OmegaConfig stream_config() {
  OmegaConfig config;
  config.grid_size = 14;
  config.max_window = 200'000;
  config.min_window = 10'000;
  return config;
}

/// Bitwise comparison of two scans: every field of every score must match,
/// including the raw bit pattern of max_omega.
void expect_bitwise_equal(const omega::core::ScanResult& expected,
                          const omega::core::ScanResult& actual) {
  ASSERT_EQ(expected.scores.size(), actual.scores.size());
  for (std::size_t g = 0; g < expected.scores.size(); ++g) {
    const auto& e = expected.scores[g];
    const auto& a = actual.scores[g];
    EXPECT_EQ(e.valid, a.valid) << "grid " << g;
    EXPECT_EQ(e.quarantined, a.quarantined) << "grid " << g;
    EXPECT_EQ(e.position_bp, a.position_bp) << "grid " << g;
    if (!e.valid) continue;
    EXPECT_EQ(e.best_a, a.best_a) << "grid " << g;
    EXPECT_EQ(e.best_b, a.best_b) << "grid " << g;
    EXPECT_EQ(e.evaluated, a.evaluated) << "grid " << g;
    EXPECT_EQ(std::memcmp(&e.max_omega, &a.max_omega, sizeof(double)), 0)
        << "grid " << g << ": " << e.max_omega << " vs " << a.max_omega;
  }
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ----------------------------------------------------------- chunk readers --

TEST(ChunkReaderPlan, RejectsMalformedRanges) {
  const auto d = stream_dataset(11, 40);
  DatasetChunkReader reader(d);
  EXPECT_THROW(reader.plan({{5, 5}}), std::invalid_argument);   // empty
  EXPECT_THROW(reader.plan({{10, 5}}), std::invalid_argument);  // reversed
  EXPECT_THROW(reader.plan({{0, 41}}), std::invalid_argument);  // out of bounds
  EXPECT_THROW(reader.plan({{10, 20}, {5, 15}}),
               std::invalid_argument);  // begins step backwards
  EXPECT_THROW(reader.plan({{0, 30}, {10, 20}}),
               std::invalid_argument);  // ends step backwards
}

TEST(ChunkReaderPlan, NextWithoutPlanIsExhausted) {
  const auto d = stream_dataset(12, 30);
  DatasetChunkReader reader(d);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ChunkReaderDataset, ChunksMatchInMemorySlices) {
  const auto d = stream_dataset(13, 50);
  DatasetChunkReader reader(d);
  EXPECT_EQ(reader.index().num_sites(), d.num_sites());
  EXPECT_EQ(reader.index().num_samples, d.num_samples());
  EXPECT_EQ(reader.index().locus_length_bp, d.locus_length_bp());

  // Overlapping ranges, as the stream planner produces them.
  reader.plan({{0, 20}, {12, 35}, {30, 50}});
  std::size_t expected_index = 0;
  for (const SiteRange range : {SiteRange{0, 20}, SiteRange{12, 35},
                                SiteRange{30, 50}}) {
    const auto chunk = reader.next();
    ASSERT_TRUE(chunk.has_value());
    EXPECT_EQ(chunk->first_site, range.begin);
    EXPECT_EQ(chunk->index, expected_index++);
    ASSERT_EQ(chunk->dataset.num_sites(), range.size());
    EXPECT_EQ(chunk->dataset.num_samples(), d.num_samples());
    EXPECT_EQ(chunk->dataset.locus_length_bp(), d.locus_length_bp());
    for (std::size_t s = 0; s < range.size(); ++s) {
      EXPECT_EQ(chunk->dataset.position(s), d.position(range.begin + s));
      EXPECT_EQ(chunk->dataset.site(s), d.site(range.begin + s));
    }
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(VcfChunkReaderTest, IndexAndChunksMatchInMemoryLoad) {
  const auto d = stream_dataset(14, 60);
  const std::string path = temp_path("omega_stream_test.vcf");
  omega::io::write_vcf_file(path, d);

  omega::io::VcfLoadReport report;
  const auto loaded = omega::io::read_vcf_file(path, &report);

  omega::io::VcfChunkReader reader(path);
  EXPECT_EQ(reader.index().positions_bp, loaded.positions());
  EXPECT_EQ(reader.index().num_samples, loaded.num_samples());
  EXPECT_EQ(reader.index().locus_length_bp, loaded.locus_length_bp());
  EXPECT_EQ(reader.load_report().records_total, report.records_total);
  EXPECT_EQ(reader.load_report().records_skipped, report.records_skipped);

  const std::size_t n = loaded.num_sites();
  reader.plan({{0, n / 2 + 4}, {n / 3, n}});
  for (const SiteRange range : {SiteRange{0, n / 2 + 4}, SiteRange{n / 3, n}}) {
    const auto chunk = reader.next();
    ASSERT_TRUE(chunk.has_value());
    ASSERT_EQ(chunk->dataset.num_sites(), range.size());
    for (std::size_t s = 0; s < range.size(); ++s) {
      EXPECT_EQ(chunk->dataset.position(s), loaded.position(range.begin + s));
      EXPECT_EQ(chunk->dataset.site(s), loaded.site(range.begin + s));
    }
  }
  std::filesystem::remove(path);
}

TEST(VcfChunkReaderTest, NextBeforePlanThrows) {
  const auto d = stream_dataset(15, 20);
  const std::string path = temp_path("omega_stream_noplan.vcf");
  omega::io::write_vcf_file(path, d);
  omega::io::VcfChunkReader reader(path);
  // plan() was never called: the pass-2 parser does not exist yet, but the
  // reader must not silently yield data either.
  reader.plan({{0, d.num_sites()}});
  ASSERT_TRUE(reader.next().has_value());
  std::filesystem::remove(path);
}

TEST(MsChunkReaderTest, IndexAndChunksMatchInMemoryLoad) {
  const auto d = stream_dataset(16, 70);
  const std::string path = temp_path("omega_stream_test.ms");
  omega::io::write_ms_file(path, {d});

  omega::io::MsReadOptions options;
  options.locus_length_bp = d.locus_length_bp();
  const auto loaded = omega::io::read_ms_file(path, options).at(0);

  omega::io::MsChunkReader reader(path, options);
  EXPECT_EQ(reader.index().positions_bp, loaded.positions());
  EXPECT_EQ(reader.index().num_samples, loaded.num_samples());
  EXPECT_EQ(reader.index().locus_length_bp, loaded.locus_length_bp());

  const std::size_t n = loaded.num_sites();
  reader.plan({{0, n / 2}, {n / 4, n}});
  for (const SiteRange range : {SiteRange{0, n / 2}, SiteRange{n / 4, n}}) {
    const auto chunk = reader.next();
    ASSERT_TRUE(chunk.has_value());
    ASSERT_EQ(chunk->dataset.num_sites(), range.size());
    for (std::size_t s = 0; s < range.size(); ++s) {
      EXPECT_EQ(chunk->dataset.position(s), loaded.position(range.begin + s));
      EXPECT_EQ(chunk->dataset.site(s), loaded.site(range.begin + s));
    }
  }
  std::filesystem::remove(path);
}

TEST(MsChunkReaderTest, MissingReplicateThrows) {
  const auto d = stream_dataset(17, 20);
  const std::string path = temp_path("omega_stream_onerep.ms");
  omega::io::write_ms_file(path, {d});
  EXPECT_THROW(omega::io::MsChunkReader(path, {}, 3), std::runtime_error);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- stream plan --

TEST(StreamPlanTest, SingleChunkWhenEverythingFits) {
  const auto d = stream_dataset(21, 80);
  const auto plan = omega::core::plan_stream_chunks(
      d.positions(), stream_config(), d.num_sites());
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].grid_begin, 0u);
  EXPECT_EQ(plan.chunks[0].grid_end, plan.grid.size());
  EXPECT_EQ(plan.overlap_sites(), 0u);
}

TEST(StreamPlanTest, ChunksCoverGridAndContainTheirWindows) {
  const auto d = stream_dataset(22, 200);
  for (const std::size_t chunk_sites : {16u, 40u, 90u}) {
    const auto plan = omega::core::plan_stream_chunks(
        d.positions(), stream_config(), chunk_sites);
    ASSERT_FALSE(plan.chunks.empty());
    // Grid ranges tile [0, grid.size()) contiguously.
    EXPECT_EQ(plan.chunks.front().grid_begin, 0u);
    EXPECT_EQ(plan.chunks.back().grid_end, plan.grid.size());
    for (std::size_t k = 0; k < plan.chunks.size(); ++k) {
      const auto& step = plan.chunks[k];
      if (k > 0) EXPECT_EQ(step.grid_begin, plan.chunks[k - 1].grid_end);
      ASSERT_LT(step.grid_begin, step.grid_end);
      // Every valid position is fully contained in its chunk's site range.
      for (std::size_t g = step.grid_begin; g < step.grid_end; ++g) {
        if (!plan.grid[g].valid) continue;
        EXPECT_GE(plan.grid[g].lo, step.sites.begin) << "grid " << g;
        EXPECT_LT(plan.grid[g].hi, step.sites.end) << "grid " << g;
      }
      // Within-target chunks respect the memory bound; oversized ones hold
      // exactly one window span.
      if (step.sites.size() > chunk_sites) {
        bool single_window = false;
        for (std::size_t g = step.grid_begin; g < step.grid_end; ++g) {
          if (!plan.grid[g].valid) continue;
          single_window = plan.grid[g].hi + 1 - plan.grid[g].lo ==
                          step.sites.size();
          break;  // first valid position anchors the chunk
        }
        EXPECT_TRUE(single_window)
            << "oversized chunk " << k << " is not a single window";
      }
    }
  }
}

TEST(StreamPlanTest, OverlapCountsSharedSites) {
  omega::core::StreamPlan plan;
  plan.chunks.push_back({SiteRange{0, 10}, 0, 1});
  plan.chunks.push_back({SiteRange{6, 16}, 1, 2});   // 4 shared
  plan.chunks.push_back({SiteRange{16, 20}, 2, 3});  // disjoint
  EXPECT_EQ(plan.overlap_sites(), 4u);
}

TEST(StreamOptionsTest, Validation) {
  StreamScanOptions bad;
  bad.chunk_sites = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  // threads > 1 used to be rejected; the span engine now runs it. Scores
  // must match the serial stream bitwise.
  const auto d = stream_dataset(23, 40);
  ScannerOptions options;
  options.config = stream_config();
  DatasetChunkReader serial_reader(d);
  const auto serial = omega::core::stream_scan(serial_reader, options);
  options.threads = 4;
  DatasetChunkReader mt_reader(d);
  const auto threaded = omega::core::stream_scan(mt_reader, options);
  ASSERT_EQ(threaded.scores.size(), serial.scores.size());
  for (std::size_t i = 0; i < serial.scores.size(); ++i) {
    EXPECT_EQ(threaded.scores[i].valid, serial.scores[i].valid);
    EXPECT_EQ(threaded.scores[i].max_omega, serial.scores[i].max_omega);
  }
  EXPECT_EQ(threaded.profile.sched.workers, 4u);
}

// ------------------------------------------------- bitwise scan equivalence --

TEST(StreamScanEquivalence, CpuBitwiseAcrossChunkSizes) {
  const auto d = stream_dataset(31, 220);
  for (const std::size_t threads : {1u, 3u}) {
    ScannerOptions options;
    options.config = stream_config();
    options.threads = threads;
    const auto reference = omega::core::scan(d, options);

    // 1000 >= num_sites: single chunk. 60: several chunks. 12: smaller than
    // most window spans, so windows are split across planned chunk seams and
    // get dedicated oversized chunks.
    for (const std::size_t chunk_sites : {1000u, 60u, 12u}) {
      DatasetChunkReader reader(d);
      StreamScanOptions stream_options;
      stream_options.chunk_sites = chunk_sites;
      const auto streamed =
          omega::core::stream_scan(reader, options, stream_options);
      expect_bitwise_equal(reference, streamed);
      EXPECT_EQ(streamed.profile.stream.chunk_sites_target, chunk_sites);
      EXPECT_EQ(streamed.profile.stream.total_sites, d.num_sites());
      EXPECT_EQ(streamed.profile.stream.failed_chunks, 0u);
      if (chunk_sites != 1000u) continue;

      // scan() is the single-resident-chunk case of the same executor, so
      // the one-chunk stream agrees on every non-timing counter as well.
      const auto& a = reference.profile;
      const auto& b = streamed.profile;
      EXPECT_EQ(b.stream.chunks, 1u);
      EXPECT_EQ(a.omega_evaluations, b.omega_evaluations);
      EXPECT_EQ(a.positions_scanned, b.positions_scanned);
      EXPECT_EQ(a.kernel.positions, b.kernel.positions);
      EXPECT_EQ(a.kernel.scalar_evaluations, b.kernel.scalar_evaluations);
      EXPECT_EQ(a.kernel.portable_evaluations, b.kernel.portable_evaluations);
      EXPECT_EQ(a.kernel.avx2_evaluations, b.kernel.avx2_evaluations);
      EXPECT_EQ(a.sched.workers, b.sched.workers);
      EXPECT_EQ(a.ld.engine, b.ld.engine);
      if (threads > 1) continue;  // MT r2_fetched depends on steal order
      EXPECT_EQ(a.r2_fetched, b.r2_fetched);
      EXPECT_EQ(a.relocation.resets, b.relocation.resets);
      EXPECT_EQ(a.relocation.relocations, b.relocation.relocations);
      EXPECT_EQ(a.relocation.cells_reused, b.relocation.cells_reused);
      EXPECT_EQ(a.relocation.cells_recomputed, b.relocation.cells_recomputed);
    }
  }
}

TEST(StreamScanEquivalence, SingleBufferedMatchesDoubleBuffered) {
  const auto d = stream_dataset(32, 180);
  ScannerOptions options;
  options.config = stream_config();
  const auto reference = omega::core::scan(d, options);

  DatasetChunkReader reader(d);
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 50;
  stream_options.double_buffer = false;
  const auto streamed =
      omega::core::stream_scan(reader, options, stream_options);
  expect_bitwise_equal(reference, streamed);
}

TEST(StreamScanEquivalence, SeamCarryoverReusesTheMatrix) {
  const auto d = stream_dataset(33, 200);
  ScannerOptions options;
  options.config = stream_config();
  DatasetChunkReader reader(d);
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 80;
  const auto streamed =
      omega::core::stream_scan(reader, options, stream_options);
  ASSERT_GT(streamed.profile.stream.chunks, 1u);
  // Consecutive chunks overlap, so at least one seam relocates the live
  // matrix instead of rebuilding it.
  EXPECT_GT(streamed.profile.stream.seam_carryovers, 0u);
  EXPECT_GT(streamed.profile.stream.overlap_sites, 0u);
  EXPECT_LT(streamed.profile.stream.peak_resident_sites,
            2 * static_cast<std::uint64_t>(d.num_sites()));
}

TEST(StreamScanEquivalence, MsFileStreamMatchesInMemoryLoad) {
  const auto d = stream_dataset(34, 150);
  const std::string path = temp_path("omega_stream_equiv.ms");
  omega::io::write_ms_file(path, {d});
  omega::io::MsReadOptions ms_options;
  ms_options.locus_length_bp = d.locus_length_bp();

  ScannerOptions options;
  options.config = stream_config();
  const auto loaded = omega::io::read_ms_file(path, ms_options).at(0);
  const auto reference = omega::core::scan(loaded, options);

  omega::io::MsChunkReader reader(path, ms_options);
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 45;
  const auto streamed =
      omega::core::stream_scan(reader, options, stream_options);
  expect_bitwise_equal(reference, streamed);
  std::filesystem::remove(path);
}

TEST(StreamScanEquivalence, VcfFileStreamMatchesInMemoryLoad) {
  const auto d = stream_dataset(35, 150);
  const std::string path = temp_path("omega_stream_equiv.vcf");
  omega::io::write_vcf_file(path, d);

  ScannerOptions options;
  options.config = stream_config();
  const auto loaded = omega::io::read_vcf_file(path);
  const auto reference = omega::core::scan(loaded, options);

  omega::io::VcfChunkReader reader(path);
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 45;
  const auto streamed =
      omega::core::stream_scan(reader, options, stream_options);
  expect_bitwise_equal(reference, streamed);
  std::filesystem::remove(path);
}

TEST(StreamScanEquivalence, GpuSimBackendBitwise) {
  const auto d = stream_dataset(36, 150);
  omega::sweep::DetectorOptions options;
  options.config = stream_config();
  options.backend = omega::sweep::Backend::GpuSim;
  const auto reference = omega::sweep::detect_sweeps(d, options);

  DatasetChunkReader reader(d);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 50;
  const auto streamed =
      omega::sweep::detect_sweeps_stream(reader, options, stream_options);

  ASSERT_EQ(reference.candidates.size(), streamed.candidates.size());
  for (std::size_t i = 0; i < reference.candidates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&reference.candidates[i].omega,
                          &streamed.candidates[i].omega, sizeof(double)),
              0);
    EXPECT_EQ(reference.candidates[i].position_bp,
              streamed.candidates[i].position_bp);
    EXPECT_EQ(reference.candidates[i].window_start_bp,
              streamed.candidates[i].window_start_bp);
    EXPECT_EQ(reference.candidates[i].window_end_bp,
              streamed.candidates[i].window_end_bp);
  }
  EXPECT_EQ(reference.profile.positions_scanned,
            streamed.profile.positions_scanned);
  EXPECT_EQ(reference.profile.omega_evaluations,
            streamed.profile.omega_evaluations);
  EXPECT_EQ(reference.backend_name, streamed.backend_name);
}

TEST(StreamScanEquivalence, FpgaSimBackendBitwise) {
  const auto d = stream_dataset(37, 150);
  omega::sweep::DetectorOptions options;
  options.config = stream_config();
  options.backend = omega::sweep::Backend::FpgaSim;
  const auto reference = omega::sweep::detect_sweeps(d, options);

  DatasetChunkReader reader(d);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 50;
  const auto streamed =
      omega::sweep::detect_sweeps_stream(reader, options, stream_options);

  ASSERT_EQ(reference.candidates.size(), streamed.candidates.size());
  for (std::size_t i = 0; i < reference.candidates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&reference.candidates[i].omega,
                          &streamed.candidates[i].omega, sizeof(double)),
              0);
  }
  EXPECT_EQ(reference.profile.omega_evaluations,
            streamed.profile.omega_evaluations);
}

TEST(StreamScanEquivalence, CpuThreadedStreamBitwise) {
  // Streamed multithreaded compute (span engine per chunk) must match the
  // in-memory threaded scan bitwise, same as the single-threaded backends.
  const auto d = stream_dataset(38, 120);
  omega::sweep::DetectorOptions options;
  options.config = stream_config();
  options.backend = omega::sweep::Backend::CpuThreaded;
  options.threads = 3;
  const auto reference = omega::sweep::detect_sweeps(d, options);

  DatasetChunkReader reader(d);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  const auto streamed =
      omega::sweep::detect_sweeps_stream(reader, options, stream_options);

  EXPECT_EQ(streamed.backend_name, "cpu-mt");
  ASSERT_EQ(reference.candidates.size(), streamed.candidates.size());
  for (std::size_t i = 0; i < reference.candidates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&reference.candidates[i].omega,
                          &streamed.candidates[i].omega, sizeof(double)),
              0);
  }
  EXPECT_EQ(reference.profile.omega_evaluations,
            streamed.profile.omega_evaluations);
}

TEST(StreamScanEquivalence, FaultInjectionSequencesMatch) {
  // Same fault plan on both paths: the single backend instance consumes the
  // PRNG in the same per-position order, so retries and recovered scores are
  // bitwise identical too.
  const auto d = stream_dataset(39, 150);
  omega::sweep::DetectorOptions options;
  options.config = stream_config();
  options.backend = omega::sweep::Backend::GpuSim;
  options.fault_plan.mode = omega::util::fault::FaultMode::TransientNan;
  options.fault_plan.rate = 0.35;
  options.fault_plan.seed = 99;
  const auto reference = omega::sweep::detect_sweeps(d, options);
  ASSERT_GT(reference.profile.faults.faults_injected, 0u);

  DatasetChunkReader reader(d);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  const auto streamed =
      omega::sweep::detect_sweeps_stream(reader, options, stream_options);

  EXPECT_EQ(reference.profile.faults.faults_injected,
            streamed.profile.faults.faults_injected);
  EXPECT_EQ(reference.profile.faults.retries, streamed.profile.faults.retries);
  ASSERT_EQ(reference.candidates.size(), streamed.candidates.size());
  for (std::size_t i = 0; i < reference.candidates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&reference.candidates[i].omega,
                          &streamed.candidates[i].omega, sizeof(double)),
              0);
  }
}

// ------------------------------------------------------ chunk-level faults --

/// Backend whose first `failures` max_omega calls throw a non-BackendError
/// exception (the class the per-position recovery engine does NOT absorb),
/// then delegates to the CPU loop.
class BrittleBackend final : public omega::core::OmegaBackend {
 public:
  explicit BrittleBackend(std::size_t failures) : failures_(failures) {}

  [[nodiscard]] std::string name() const override { return "brittle"; }

  omega::core::OmegaResult max_omega(
      const omega::core::DpMatrix& m,
      const omega::core::GridPosition& position) override {
    if (failures_ > 0) {
      --failures_;
      throw std::logic_error("brittle backend: simulated driver bug");
    }
    return cpu_.max_omega(m, position);
  }

 private:
  std::size_t failures_;
  omega::core::CpuOmegaBackend cpu_;
};

TEST(StreamScanFaults, ChunkRetryRecoversTransientFailure) {
  const auto d = stream_dataset(41, 150);
  ScannerOptions options;
  options.config = stream_config();
  const auto reference = omega::core::scan(d, options);

  DatasetChunkReader reader(d);
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 60;
  const auto streamed = omega::core::stream_scan(
      reader, options, stream_options,
      [] { return std::make_unique<BrittleBackend>(1); });

  // One throw during chunk 0, retried from a rebuilt matrix; every score is
  // still produced and bitwise identical (the CPU loop is deterministic).
  EXPECT_EQ(streamed.profile.stream.failed_chunks, 0u);
  EXPECT_EQ(streamed.profile.faults.quarantined_positions, 0u);
  expect_bitwise_equal(reference, streamed);
}

TEST(StreamScanFaults, ExhaustedRetriesQuarantineTheChunkAndContinue) {
  const auto d = stream_dataset(42, 150);
  ScannerOptions options;
  options.config = stream_config();

  DatasetChunkReader reader(d);
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 60;
  stream_options.chunk_retries = 1;
  // Enough failures to sink chunk 0's attempts (first position of each
  // attempt throws) but leave later chunks healthy.
  const auto streamed = omega::core::stream_scan(
      reader, options, stream_options,
      [] { return std::make_unique<BrittleBackend>(2); });

  EXPECT_EQ(streamed.profile.stream.failed_chunks, 1u);
  EXPECT_GT(streamed.profile.faults.quarantined_positions, 0u);

  // The stream never aborts: later chunks still score.
  bool any_valid = false;
  bool any_quarantined = false;
  for (const auto& score : streamed.scores) {
    any_valid |= score.valid;
    any_quarantined |= score.quarantined;
    EXPECT_FALSE(score.valid && score.quarantined);
  }
  EXPECT_TRUE(any_valid);
  EXPECT_TRUE(any_quarantined);
}

TEST(StreamStatsTest, IoOverlapRatioClamps) {
  omega::core::StreamStats stats;
  EXPECT_EQ(stats.io_overlap_ratio(), 0.0);  // no IO at all
  stats.io_seconds = 2.0;
  stats.io_stall_seconds = 0.5;
  EXPECT_DOUBLE_EQ(stats.io_overlap_ratio(), 0.75);
  stats.io_stall_seconds = 3.0;  // stall can exceed io (wait on a slow queue)
  EXPECT_EQ(stats.io_overlap_ratio(), 0.0);
}

}  // namespace
