// Crash-safe runtime tests: cooperative cancellation (tokens, signals,
// deadlines), checkpoint serialization, and the headline guarantee —
// interrupt a streaming scan after K committed chunks, resume it, and the
// final result is bitwise identical to an uninterrupted run for every
// backend, including under fault injection.

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/metrics_json.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gemm_ld_kernel.h"
#include "hw/gpu/gpu_backend.h"
#include "io/chunk_reader.h"
#include "io/fingerprint.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "sweep/detector.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/progress.h"
#include "util/telemetry.h"

namespace {

using omega::core::OmegaConfig;
using omega::core::ScannerOptions;
using omega::core::ScanResult;
using omega::core::StreamScanOptions;
using omega::io::DatasetChunkReader;
using omega::util::CancelReason;
using omega::util::CancelToken;

omega::io::Dataset runtime_dataset(std::uint64_t seed,
                                   std::size_t sites = 150) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = 24,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 25.0,
                                   .seed = seed});
}

OmegaConfig runtime_config() {
  OmegaConfig config;
  config.grid_size = 14;
  config.max_window = 200'000;
  config.min_window = 10'000;
  return config;
}

void expect_bitwise_equal(const ScanResult& expected, const ScanResult& actual) {
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

/// Temp checkpoint path that cleans up after itself (and the .tmp sibling).
/// The current test's name is folded into the filename so tests sharing a
/// base name never collide when ctest runs them in parallel processes.
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

using BackendFactory = std::function<std::unique_ptr<omega::core::OmegaBackend>()>;

/// Backend factory + LD wiring per simulated accelerator, mirroring
/// sweep::detect_sweeps_stream (one shared pool, fresh backend per worker).
struct BackendSetup {
  BackendFactory factory;  // empty => CPU reference loop
  void apply_ld(ScannerOptions& options) const {
    if (ld_factory) options.ld_factory = ld_factory;
  }
  std::function<std::unique_ptr<omega::ld::LdEngine>(const omega::ld::SnpMatrix&)>
      ld_factory;
};

BackendSetup cpu_setup() { return {}; }

BackendSetup gpu_setup(omega::util::fault::FaultPlan fault_plan = {}) {
  static omega::par::ThreadPool pool;
  const auto spec = omega::hw::tesla_k80();
  BackendSetup setup;
  setup.ld_factory = [spec](const omega::ld::SnpMatrix& snps) {
    return std::make_unique<omega::hw::gpu::GpuLdEngine>(snps, pool, spec);
  };
  setup.factory = [spec, fault_plan] {
    omega::hw::gpu::GpuBackendOptions backend_options;
    backend_options.fault_plan = fault_plan;
    return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(spec, pool,
                                                             backend_options);
  };
  return setup;
}

BackendSetup fpga_setup(omega::util::fault::FaultPlan fault_plan = {}) {
  const auto spec = omega::hw::alveo_u200();
  BackendSetup setup;
  setup.factory = [spec, fault_plan] {
    omega::hw::fpga::FpgaBackendOptions backend_options;
    backend_options.fault_plan = fault_plan;
    return std::make_unique<omega::hw::fpga::FpgaOmegaBackend>(
        spec, backend_options);
  };
  return setup;
}

/// The kill-and-resume identity check: reference run (uninterrupted, no
/// checkpointing), interrupted run (cancel once `cancel_after_chunks` have
/// committed), resumed run — the resumed scores must be bitwise identical to
/// the reference for every backend.
void kill_and_resume_identity(const BackendSetup& setup,
                              std::size_t threads = 1,
                              omega::util::fault::FaultPlan fault_plan = {},
                              std::uint64_t cancel_after_chunks = 1) {
  const auto d = runtime_dataset(71, 150);
  ScannerOptions options;
  options.config = runtime_config();
  options.threads = threads;
  setup.apply_ld(options);

  StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;

  // Reference: uninterrupted, no checkpointing.
  DatasetChunkReader reference_reader(d);
  const ScanResult reference = omega::core::stream_scan(
      reference_reader, options, stream_options, setup.factory);
  (void)fault_plan;  // plans are baked into setup.factory

  const CheckpointPath ckpt("omega_runtime_kill_resume.ckpt");
  stream_options.checkpoint_path = ckpt.str();

  // Interrupted run: request cancellation from the progress sink as soon as
  // `cancel_after_chunks` chunks have committed.
  CancelToken token;
  omega::util::ProgressReporter progress(
      [&](const omega::util::ProgressUpdate& update) {
        if (update.chunks_done >= cancel_after_chunks) {
          token.request(CancelReason::Api);
        }
      },
      /*interval_seconds=*/0.0);
  ScannerOptions interrupted_options = options;
  interrupted_options.cancel = &token;
  interrupted_options.progress = &progress;
  DatasetChunkReader interrupted_reader(d);
  const ScanResult interrupted = omega::core::stream_scan(
      interrupted_reader, interrupted_options, stream_options, setup.factory);
  ASSERT_TRUE(token.cancelled());
  EXPECT_TRUE(interrupted.profile.runtime.cancelled);
  EXPECT_TRUE(interrupted.profile.runtime.partial);
  EXPECT_EQ(interrupted.profile.runtime.cancel_reason, "api");
  EXPECT_GT(interrupted.profile.runtime.checkpoints_written, 0u);
  EXPECT_GT(interrupted.profile.runtime.positions_skipped, 0u);

  // The checkpoint on disk covers only fully committed chunks.
  const auto saved = omega::core::load_checkpoint(ckpt.str());
  EXPECT_GE(saved.chunks_completed, cancel_after_chunks);
  EXPECT_LT(saved.chunks_completed, saved.chunks_total);
  EXPECT_FALSE(std::filesystem::exists(ckpt.str() + ".tmp"));

  // Resume: no cancellation this time; must land exactly on the reference.
  StreamScanOptions resume_options = stream_options;
  resume_options.resume = true;
  DatasetChunkReader resumed_reader(d);
  const ScanResult resumed = omega::core::stream_scan(
      resumed_reader, options, resume_options, setup.factory);
  EXPECT_EQ(resumed.profile.runtime.resume_validations, 1u);
  EXPECT_EQ(resumed.profile.runtime.chunks_resumed, saved.chunks_completed);
  EXPECT_FALSE(resumed.profile.runtime.partial);
  expect_bitwise_equal(reference, resumed);
}

// ------------------------------------------------------------ cancel units --

TEST(CancelTokenTest, FirstReasonSticksAndResetRearms) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.request(CancelReason::Signal);
  token.request(CancelReason::Deadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Signal);
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::None);
}

TEST(CancelTokenTest, ThrowIfCancelledCarriesReason) {
  CancelToken token;
  EXPECT_NO_THROW(token.throw_if_cancelled());
  token.request(CancelReason::Deadline);
  try {
    token.throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const omega::util::CancelledError& error) {
    EXPECT_EQ(error.reason(), CancelReason::Deadline);
    EXPECT_NE(std::string(error.what()).find("deadline"), std::string::npos);
  }
}

TEST(DeadlineTest, VirtualClockExpiry) {
  double now = 100.0;
  const omega::util::Deadline deadline(2.0, [&] { return now; });
  ASSERT_TRUE(deadline.enabled());
  EXPECT_FALSE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.remaining(), 2.0);
  now = 101.5;
  EXPECT_FALSE(deadline.expired());
  now = 102.5;
  EXPECT_TRUE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.remaining(), 0.0);

  const omega::util::Deadline disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.expired());
}

TEST(SignalHandlerTest, RaiseSigintRequestsProcessToken) {
  omega::util::process_cancel_token().reset();
  ASSERT_TRUE(omega::util::install_cancel_signal_handlers());
  std::raise(SIGINT);
  EXPECT_TRUE(omega::util::process_cancel_token().cancelled());
  EXPECT_EQ(omega::util::process_cancel_token().reason(),
            CancelReason::Signal);
  omega::util::process_cancel_token().reset();
}

// ------------------------------------------------- config hash/fingerprint --

TEST(ScanConfigHashTest, ThreadCountExcludedScanConfigIncluded) {
  ScannerOptions a;
  a.config = runtime_config();
  ScannerOptions b = a;
  b.threads = 8;  // resume with a different worker count is legal
  EXPECT_EQ(omega::core::scan_config_hash(a, 40, "cpu"),
            omega::core::scan_config_hash(b, 40, "cpu"));

  EXPECT_NE(omega::core::scan_config_hash(a, 40, "cpu"),
            omega::core::scan_config_hash(a, 50, "cpu"));  // chunk decomposition
  ScannerOptions wider = a;
  wider.config.grid_size = 20;
  EXPECT_NE(omega::core::scan_config_hash(a, 40, "cpu"),
            omega::core::scan_config_hash(wider, 40, "cpu"));
  EXPECT_NE(omega::core::scan_config_hash(a, 40, "cpu"),
            omega::core::scan_config_hash(a, 40, "fpga-sim:u200"));
}

TEST(StreamFingerprintTest, DetectsDatasetChanges) {
  const auto d1 = runtime_dataset(81, 60);
  const auto d2 = runtime_dataset(82, 60);
  DatasetChunkReader r1(d1), r1b(d1), r2(d2);
  const auto f1 = omega::io::fingerprint_stream(r1.index());
  const auto f1b = omega::io::fingerprint_stream(r1b.index());
  const auto f2 = omega::io::fingerprint_stream(r2.index());
  EXPECT_EQ(f1, f1b);
  EXPECT_FALSE(f1 == f2);
  const auto named = omega::io::fingerprint_stream(r1.index(), "/data/a.ms");
  EXPECT_FALSE(f1 == named);
  EXPECT_NE(named.describe().find("/data/a.ms"), std::string::npos);
}

// -------------------------------------------------- checkpoint round trips --

TEST(CheckpointJsonTest, RoundTripsScoresBitwiseIncludingNan) {
  omega::core::ScanCheckpoint ckpt;
  const auto d = runtime_dataset(83, 50);
  DatasetChunkReader reader(d);
  ckpt.fingerprint = omega::io::fingerprint_stream(reader.index());
  ckpt.config_hash = 0xDEADBEEFCAFEF00Dull;
  ckpt.config_summary = "grid=14 unit=bp";
  ckpt.chunks_total = 3;
  ckpt.chunks_completed = 1;
  ckpt.grid_size = 5;
  ckpt.grid_committed = 3;

  omega::core::PositionScore valid;
  valid.position_bp = 12'345;
  valid.max_omega = std::nan("");  // NaN must survive the round trip bitwise
  valid.best_a = 3;
  valid.best_b = 9;
  valid.evaluated = 42;
  valid.valid = true;
  omega::core::PositionScore quarantined;
  quarantined.position_bp = 23'456;
  quarantined.quarantined = true;
  omega::core::PositionScore invalid;
  invalid.position_bp = 34'567;
  ckpt.scores = {valid, quarantined, invalid};

  ckpt.totals.ld_seconds = 1.25;
  ckpt.totals.omega_evaluations = 777;
  ckpt.totals.stream.io_seconds = 0.5;
  ckpt.totals.sched.workers_detail.resize(2);
  ckpt.totals.sched.workers_detail[1].spans = 4;

  const auto doc = omega::core::checkpoint_to_json(ckpt);
  const auto back = omega::core::checkpoint_from_json(doc);
  EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(back.config_hash, ckpt.config_hash);
  EXPECT_EQ(back.config_summary, ckpt.config_summary);
  EXPECT_EQ(back.chunks_completed, 1u);
  EXPECT_EQ(back.grid_committed, 3u);
  ASSERT_EQ(back.scores.size(), 3u);
  EXPECT_TRUE(back.scores[0].valid);
  EXPECT_EQ(std::memcmp(&back.scores[0].max_omega, &valid.max_omega,
                        sizeof(double)),
            0);
  EXPECT_EQ(back.scores[0].best_b, 9u);
  EXPECT_TRUE(back.scores[1].quarantined);
  EXPECT_FALSE(back.scores[2].valid);
  EXPECT_DOUBLE_EQ(back.totals.ld_seconds, 1.25);
  EXPECT_EQ(back.totals.omega_evaluations, 777u);
  EXPECT_DOUBLE_EQ(back.totals.stream.io_seconds, 0.5);
  ASSERT_EQ(back.totals.sched.workers_detail.size(), 2u);
  EXPECT_EQ(back.totals.sched.workers_detail[1].spans, 4u);
}

TEST(CheckpointFileTest, AtomicWriteLeavesNoTempAndLoadsBack) {
  const CheckpointPath path("omega_runtime_atomic.ckpt");
  omega::core::ScanCheckpoint ckpt;
  ckpt.chunks_total = 2;
  ckpt.grid_size = 4;
  const auto bytes = omega::core::write_checkpoint(path.str(), ckpt);
  EXPECT_GT(bytes, 0u);
  EXPECT_TRUE(std::filesystem::exists(path.str()));
  EXPECT_FALSE(std::filesystem::exists(path.str() + ".tmp"));
  const auto back = omega::core::load_checkpoint(path.str());
  EXPECT_EQ(back.chunks_total, 2u);
  EXPECT_EQ(back.grid_size, 4u);
}

TEST(CheckpointFileTest, LoadRejectsMissingAndMalformed) {
  EXPECT_THROW(
      (void)omega::core::load_checkpoint("/nonexistent/omega_nope.ckpt"),
      std::runtime_error);
  const CheckpointPath path("omega_runtime_malformed.ckpt");
  std::ofstream(path.str()) << "{not json";
  EXPECT_THROW((void)omega::core::load_checkpoint(path.str()),
               std::runtime_error);
  std::ofstream(path.str()) << "{\"schema\": \"something.else\"}";
  EXPECT_THROW((void)omega::core::load_checkpoint(path.str()),
               std::runtime_error);
}

TEST(TelemetryJsonTest, RoundTripsThroughFromJson) {
  const auto begin = omega::util::telemetry::snapshot();
  omega::util::telemetry::counter("test.ckpt.roundtrip.counter").add(5);
  auto& hist = omega::util::telemetry::histogram("test.ckpt.roundtrip.hist");
  hist.record(0.001);
  hist.record(0.002);
  hist.record(4.0);
  const auto snap = omega::util::telemetry::snapshot().delta_since(begin);

  const auto doc = omega::core::metrics::telemetry_json(snap);
  const auto back = omega::core::metrics::telemetry_from_json(doc);

  auto find_counter = [](const omega::util::telemetry::RegistrySnapshot& s,
                         const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(find_counter(back, "test.ckpt.roundtrip.counter"), 5u);
  for (const auto& [name, h] : back.histograms) {
    if (name != "test.ckpt.roundtrip.hist") continue;
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.sum, 0.001 + 0.002 + 4.0);
    std::uint64_t bucket_total = 0;
    for (const auto bucket : h.buckets) bucket_total += bucket;
    EXPECT_EQ(bucket_total, 3u);
    return;
  }
  FAIL() << "histogram missing from round trip";
}

// ------------------------------------------------------- deadline behavior --

TEST(ScanDeadlineTest, VirtualClockExpiryYieldsPartialV8Metrics) {
  const auto d = runtime_dataset(84, 150);
  omega::sweep::DetectorOptions options;
  options.config = runtime_config();
  options.deadline_seconds = 3.0;
  double now = 0.0;
  options.deadline_clock = [&now] { return now += 1.0; };  // expires fast
  const auto report = omega::sweep::detect_sweeps(d, options);

  EXPECT_TRUE(report.partial);
  EXPECT_TRUE(report.profile.runtime.partial);
  EXPECT_TRUE(report.profile.runtime.cancelled);
  EXPECT_EQ(report.profile.runtime.cancel_reason, "deadline");
  EXPECT_EQ(report.profile.runtime.deadline_outcome, "expired");
  EXPECT_GT(report.profile.runtime.positions_skipped, 0u);

  // The metrics document carries the schema-v8 runtime block.
  const auto metrics =
      omega::core::metrics::JsonValue::parse(report.metrics_json("deadline"));
  EXPECT_EQ(metrics.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& runtime = metrics.at("runtime");
  EXPECT_TRUE(runtime.at("partial").as_bool());
  EXPECT_EQ(runtime.at("deadline_outcome").as_string(), "expired");
  EXPECT_DOUBLE_EQ(runtime.at("deadline_seconds").as_double(), 3.0);
}

TEST(ScanDeadlineTest, GenerousDeadlineIsMet) {
  const auto d = runtime_dataset(85, 60);
  omega::sweep::DetectorOptions options;
  options.config = runtime_config();
  options.deadline_seconds = 3'600.0;
  const auto report = omega::sweep::detect_sweeps(d, options);
  EXPECT_FALSE(report.partial);
  EXPECT_FALSE(report.profile.runtime.cancelled);
  EXPECT_EQ(report.profile.runtime.deadline_outcome, "met");
}

TEST(ScanDeadlineTest, SignalPreemptsDeadlineOutcome) {
  const auto d = runtime_dataset(86, 60);
  CancelToken token;
  token.request(CancelReason::Signal);  // cancelled before the scan starts
  omega::sweep::DetectorOptions options;
  options.config = runtime_config();
  options.cancel = &token;
  options.deadline_seconds = 3'600.0;
  const auto report = omega::sweep::detect_sweeps(d, options);
  EXPECT_TRUE(report.partial);
  EXPECT_EQ(report.profile.runtime.cancel_reason, "signal");
  EXPECT_EQ(report.profile.runtime.deadline_outcome, "preempted");
}

// Positions a cancelled scan never reaches stay unscored but still report
// their coordinates, in memory and streamed, serial and multithreaded.
TEST(ScanCancel, UnreachedPositionsKeepTheirCoordinates) {
  const auto d = runtime_dataset(87, 120);
  const auto grid = omega::core::build_grid(d, runtime_config());
  for (const std::size_t threads : {1u, 3u}) {
    for (const bool streamed : {false, true}) {
      CancelToken token;
      token.request(CancelReason::Api);  // cancelled before the scan starts
      ScannerOptions options;
      options.config = runtime_config();
      options.threads = threads;
      options.cancel = &token;
      DatasetChunkReader reader(d);
      StreamScanOptions stream_options;
      stream_options.chunk_sites = 1'000;  // one resident chunk
      const ScanResult result =
          streamed ? omega::core::stream_scan(reader, options, stream_options)
                   : omega::core::scan(d, options);
      const std::string label = std::string(streamed ? "stream" : "scan") +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(result.scores.size(), grid.size()) << label;
      EXPECT_TRUE(result.profile.runtime.partial) << label;
      for (std::size_t g = 0; g < grid.size(); ++g) {
        EXPECT_FALSE(result.scores[g].valid) << label << " grid " << g;
        EXPECT_EQ(result.scores[g].position_bp, grid[g].position_bp)
            << label << " grid " << g;
      }
    }
  }
}

// ------------------------------------------------------- kill-and-resume ----

TEST(StreamKillResume, CpuBitwiseIdentity) {
  kill_and_resume_identity(cpu_setup());
}

TEST(StreamKillResume, CpuThreadedBitwiseIdentity) {
  kill_and_resume_identity(cpu_setup(), /*threads=*/3);
}

TEST(StreamKillResume, GpuSimBitwiseIdentity) {
  kill_and_resume_identity(gpu_setup());
}

TEST(StreamKillResume, FpgaSimBitwiseIdentity) {
  kill_and_resume_identity(fpga_setup());
}

TEST(StreamKillResume, GpuSimFaultInjectionConverges) {
  // Fault schedules are not replayed across a resume; the retry engine must
  // still converge every transient fault to the same scores, so the identity
  // holds for fault-injected runs too.
  omega::util::fault::FaultPlan plan;
  plan.mode = omega::util::fault::FaultMode::TransientNan;
  plan.rate = 0.3;
  plan.seed = 2024;
  kill_and_resume_identity(gpu_setup(plan));
}

TEST(StreamKillResume, ResumeOfCompleteRunRescansNothing) {
  const auto d = runtime_dataset(72, 120);
  ScannerOptions options;
  options.config = runtime_config();
  const CheckpointPath ckpt("omega_runtime_complete.ckpt");
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  stream_options.checkpoint_path = ckpt.str();

  DatasetChunkReader first_reader(d);
  const ScanResult first =
      omega::core::stream_scan(first_reader, options, stream_options);
  EXPECT_FALSE(first.profile.runtime.partial);
  // The checkpoint is kept on completion so a re-run can prove it is done.
  const auto saved = omega::core::load_checkpoint(ckpt.str());
  EXPECT_EQ(saved.chunks_completed, saved.chunks_total);

  StreamScanOptions resume_options = stream_options;
  resume_options.resume = true;
  DatasetChunkReader second_reader(d);
  const ScanResult second =
      omega::core::stream_scan(second_reader, options, resume_options);
  expect_bitwise_equal(first, second);
  EXPECT_EQ(second.profile.positions_scanned, first.profile.positions_scanned)
      << "resume of a complete run must not rescan positions";
  EXPECT_EQ(second.profile.runtime.chunks_resumed, saved.chunks_total);
}

TEST(StreamKillResume, ResumeValidationRejectsMismatches) {
  const auto d = runtime_dataset(73, 120);
  ScannerOptions options;
  options.config = runtime_config();
  const CheckpointPath ckpt("omega_runtime_mismatch.ckpt");
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  stream_options.checkpoint_path = ckpt.str();
  DatasetChunkReader writer_reader(d);
  (void)omega::core::stream_scan(writer_reader, options, stream_options);

  StreamScanOptions resume_options = stream_options;
  resume_options.resume = true;

  // Different dataset.
  const auto other = runtime_dataset(74, 120);
  DatasetChunkReader other_reader(other);
  EXPECT_THROW((void)omega::core::stream_scan(other_reader, options,
                                              resume_options),
               omega::core::ResumeMismatchError);

  // Changed chunk decomposition.
  StreamScanOptions changed_chunks = resume_options;
  changed_chunks.chunk_sites = 60;
  DatasetChunkReader chunks_reader(d);
  EXPECT_THROW((void)omega::core::stream_scan(chunks_reader, options,
                                              changed_chunks),
               omega::core::ResumeMismatchError);

  // Changed grid config.
  ScannerOptions changed_grid = options;
  changed_grid.config.grid_size = 20;
  DatasetChunkReader grid_reader(d);
  EXPECT_THROW((void)omega::core::stream_scan(grid_reader, changed_grid,
                                              resume_options),
               omega::core::ResumeMismatchError);

  // Resume without a checkpoint path is a usage error.
  StreamScanOptions no_path;
  no_path.resume = true;
  DatasetChunkReader no_path_reader(d);
  EXPECT_THROW(
      (void)omega::core::stream_scan(no_path_reader, options, no_path),
      std::invalid_argument);
}

TEST(StreamKillResume, InterruptedMetricsCarryCheckpointCounters) {
  const auto d = runtime_dataset(75, 150);
  ScannerOptions options;
  options.config = runtime_config();
  const CheckpointPath ckpt("omega_runtime_metrics.ckpt");
  StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  stream_options.checkpoint_path = ckpt.str();

  CancelToken token;
  omega::util::ProgressReporter progress(
      [&](const omega::util::ProgressUpdate& update) {
        if (update.chunks_done >= 1) token.request(CancelReason::Api);
      },
      0.0);
  options.cancel = &token;
  options.progress = &progress;
  DatasetChunkReader reader(d);
  const ScanResult result =
      omega::core::stream_scan(reader, options, stream_options);

  const auto metrics = omega::core::metrics::scan_metrics("kill", result.profile);
  const auto& runtime = metrics.at("runtime");
  EXPECT_TRUE(runtime.at("cancelled").as_bool());
  EXPECT_EQ(runtime.at("cancel_reason").as_string(), "api");
  EXPECT_GT(runtime.at("checkpoints_written").as_uint(), 0u);
  EXPECT_GT(runtime.at("checkpoint_bytes").as_uint(), 0u);
  EXPECT_GE(runtime.at("cancel_latency_seconds").as_double(), 0.0);
}

}  // namespace
