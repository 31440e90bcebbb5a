// Telemetry subsystem tests: histogram bucket/quantile math against the
// documented boundaries, registry reset semantics, per-scan scopes (pool
// tasks record into their submitter's scope; concurrent scans keep their own
// ledgers), concurrent updates from thread-pool workers, the Prometheus text
// and schema-v6 JSON
// exposition, Chrome-trace export well-formedness (re-parsed with the
// repo's own JSON parser), progress rate limiting under a virtual clock,
// count reconciliation between per-scan telemetry and ScanProfile counters
// for every backend, and the metrics-diff regression engine behind
// tools/omega_metrics_diff.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics_diff.h"
#include "core/metrics_json.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gpu_backend.h"
#include "io/chunk_reader.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/fault.h"
#include "util/probe.h"
#include "util/progress.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace {

namespace telemetry = omega::util::telemetry;
using omega::core::metrics::JsonValue;
using omega::util::ProgressReporter;
using omega::util::ProgressUpdate;
using telemetry::Histogram;
using telemetry::kHistogramBuckets;

omega::io::Dataset telemetry_dataset(std::uint64_t seed,
                                     std::size_t sites = 140) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = 24,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 25.0,
                                   .seed = seed});
}

omega::core::ScannerOptions telemetry_options() {
  omega::core::ScannerOptions options;
  options.config.grid_size = 16;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 300;
  options.config.min_window = 40;
  return options;
}

std::uint64_t valid_scores(const omega::core::ScanResult& result) {
  std::uint64_t n = 0;
  for (const auto& score : result.scores) {
    if (score.valid) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Histogram math

TEST(TelemetryHistogram, BucketBoundariesAreExact) {
  const Histogram h(1.0);
  // Bucket 0 absorbs everything <= base; bucket i covers (base*2^(i-1),
  // base*2^i], with values exactly on an upper bound belonging to it.
  EXPECT_EQ(h.bucket_index(-3.0), 0u);
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0001), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 1u);
  EXPECT_EQ(h.bucket_index(2.0001), 2u);
  EXPECT_EQ(h.bucket_index(4.0), 2u);
  EXPECT_EQ(h.bucket_index(8.0), 3u);
  EXPECT_DOUBLE_EQ(h.bucket_upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper_bound(3), 8.0);
  // The last bucket absorbs everything above its bound.
  EXPECT_EQ(h.bucket_index(1e300), kHistogramBuckets - 1);
}

TEST(TelemetryHistogram, DefaultBaseSuitsSecondScaleLatencies) {
  const Histogram h;  // base 1e-9 (1 ns)
  EXPECT_EQ(h.bucket_index(1e-9), 0u);
  EXPECT_EQ(h.bucket_index(1.5e-9), 1u);
  EXPECT_EQ(h.bucket_index(2e-9), 1u);
  // 1 ms sits in bucket 20: 1e-9 * 2^20 = 1.048576e-3 >= 1e-3 > 2^19 * 1e-9.
  EXPECT_EQ(h.bucket_index(1e-3), 20u);
  EXPECT_GT(h.bucket_upper_bound(20), 1e-3);
  EXPECT_LT(h.bucket_upper_bound(19), 1e-3);
}

TEST(TelemetryHistogram, QuantilesAreBucketResolvedAndClamped) {
  Histogram h(1.0);
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
  // Rank ceil(0.5*100) = 50 -> sample 50 -> bucket (32, 64] -> bound 64.
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 64.0);
  // Rank 90 -> sample 90 -> bucket (64, 128] -> bound 128, clamped to the
  // observed max of 100.
  EXPECT_DOUBLE_EQ(snap.quantile(0.9), 100.0);
  // q = 0 clamps the rank to the first sample; q = 1 to the last.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
}

TEST(TelemetryHistogram, EmptyHistogramAndNonFiniteSamples) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 0.0);
  h.record(std::nan(""));
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.snapshot().count, 0u) << "non-finite samples must not count";
  EXPECT_EQ(h.dropped(), 3u);
  h.record(1.0);
  EXPECT_EQ(h.snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(h.snapshot().sum, 1.0) << "sum must not be NaN-poisoned";
}

// ---------------------------------------------------------------------------
// Registry semantics

TEST(TelemetryRegistry, ResolvesToTheSameInstanceAndResetsInPlace) {
  auto& c = telemetry::counter("test.registry.counter");
  auto& h = telemetry::histogram("test.registry.hist", 1.0);
  auto& g = telemetry::gauge("test.registry.gauge");
  EXPECT_EQ(&c, &telemetry::counter("test.registry.counter"));
  EXPECT_EQ(&h, &telemetry::histogram("test.registry.hist"));
  c.add(5);
  h.record(2.0);
  g.set(1.5);
  telemetry::reset();
  // reset() zeroes in place; cached references stay valid and usable.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.add(1);
  EXPECT_EQ(telemetry::counter("test.registry.counter").value(), 1u);
}

TEST(TelemetryRegistry, HistogramBaseIsFixedByFirstRegistration) {
  auto& h = telemetry::histogram("test.registry.base", 1.0);
  auto& again = telemetry::histogram("test.registry.base", 123.0);
  EXPECT_EQ(&h, &again);
  EXPECT_DOUBLE_EQ(again.base(), 1.0);
}

TEST(TelemetryRegistry, SnapshotIsNameSorted) {
  (void)telemetry::counter("test.sort.b");
  (void)telemetry::counter("test.sort.a");
  const auto snap = telemetry::snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST(TelemetryConcurrency, CountersAndHistogramsFromPoolWorkers) {
  auto& c = telemetry::counter("test.concurrent.counter");
  auto& h = telemetry::histogram("test.concurrent.hist", 1.0);
  const auto count_before = c.value();
  const auto hist_before = h.snapshot().count;
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 250;
  omega::par::ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back([&c, &h] {
      for (int i = 0; i < kIncrementsPerTask; ++i) {
        c.add(1);
        h.record(static_cast<double>(i % 7));
      }
    });
  }
  pool.run_blocking(std::move(tasks));
  EXPECT_EQ(c.value() - count_before,
            static_cast<std::uint64_t>(kTasks) * kIncrementsPerTask);
  EXPECT_EQ(h.snapshot().count - hist_before,
            static_cast<std::uint64_t>(kTasks) * kIncrementsPerTask);
}

TEST(TelemetryConcurrency, ThreadPoolPopulatesItsOwnMetrics) {
  telemetry::Scope scope;
  {
    const telemetry::Scope::Enter enter(&scope);
    omega::par::ThreadPool pool(2);
    std::vector<std::function<void()>> tasks(32, [] {});
    pool.run_blocking(std::move(tasks));
    pool.submit([] {}).get();
  }
  const auto delta = scope.snapshot();
  EXPECT_EQ(delta.counter_value("pool.tasks_total"), 33u);
  const auto* latency = delta.find_histogram("pool.task_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 33u);
  const auto* depth = delta.find_histogram("pool.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count, 33u) << "one queue-depth sample per enqueue";
}

// ---------------------------------------------------------------------------
// Scopes

TEST(TelemetryScope, RecordsLandInTheCurrentScopeOnly) {
  auto& counter = telemetry::counter("test.scope.counter");
  auto& hist = telemetry::histogram("test.scope.hist", 1.0);
  auto& gauge = telemetry::gauge("test.scope.gauge");
  const auto global_before = counter.value();
  counter.add(1);  // outside any scope: the registry only
  telemetry::Scope outer;
  telemetry::Scope inner;
  {
    const telemetry::Scope::Enter enter_outer(&outer);
    counter.add(2);
    {
      const telemetry::Scope::Enter enter_inner(&inner);
      EXPECT_EQ(telemetry::Scope::current(), &inner);
      counter.add(3);
      hist.record(4.0);
      gauge.set(0.5);
    }
    EXPECT_EQ(telemetry::Scope::current(), &outer);
    counter.add(4);
  }
  EXPECT_EQ(telemetry::Scope::current(), nullptr);
  EXPECT_EQ(counter.value() - global_before, 10u);
  const auto outer_snap = outer.snapshot();
  EXPECT_EQ(outer_snap.counter_value("test.scope.counter"), 6u);
  EXPECT_EQ(outer_snap.find_histogram("test.scope.hist"), nullptr);
  const auto inner_snap = inner.snapshot();
  EXPECT_EQ(inner_snap.counter_value("test.scope.counter"), 3u);
  const auto* inner_hist = inner_snap.find_histogram("test.scope.hist");
  ASSERT_NE(inner_hist, nullptr);
  EXPECT_EQ(inner_hist->count, 1u);
  EXPECT_DOUBLE_EQ(inner_hist->base, 1.0);
  ASSERT_EQ(inner_snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(inner_snap.gauges[0].second, 0.5);
}

TEST(TelemetryScope, PoolTasksRecordIntoTheirSubmittersScope) {
  auto& counter = telemetry::counter("test.scope.pool_counter");
  telemetry::Scope mine;
  telemetry::Scope theirs;
  omega::par::ThreadPool pool(2);
  std::thread other([&] {
    const telemetry::Scope::Enter enter(&theirs);
    std::vector<std::function<void()>> tasks(4, [&counter] { counter.add(5); });
    pool.run_blocking(std::move(tasks));
    pool.submit([&counter] { counter.add(50); }).get();
  });
  {
    const telemetry::Scope::Enter enter(&mine);
    std::vector<std::function<void()>> tasks(8, [&counter] { counter.add(1); });
    pool.run_blocking(std::move(tasks));
    pool.submit([&counter] { counter.add(100); }).get();
  }
  other.join();
  const auto my_snap = mine.snapshot();
  const auto their_snap = theirs.snapshot();
  EXPECT_EQ(my_snap.counter_value("test.scope.pool_counter"), 108u);
  EXPECT_EQ(their_snap.counter_value("test.scope.pool_counter"), 70u);
  // The pool's own per-task metrics follow each task into its scope.
  EXPECT_EQ(my_snap.counter_value("pool.tasks_total"), 9u);
  EXPECT_EQ(their_snap.counter_value("pool.tasks_total"), 5u);
}

TEST(TelemetryProbe, RecordsCompletedStagesOnly) {
  telemetry::Scope scope;
  {
    const telemetry::Scope::Enter enter(&scope);
    static const omega::util::probe::Site site(nullptr, "test.probe_seconds");
    { const omega::util::probe::Stage completed(site); }
    {
      omega::util::probe::Stage discarded(site);
      discarded.discard();
    }
    try {
      const omega::util::probe::Stage unwound(site);
      throw std::runtime_error("stage failed");
    } catch (const std::runtime_error&) {
    }
  }
  const auto telemetry_snap = scope.snapshot();
  const auto* stage = telemetry_snap.find_histogram("test.probe_seconds");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->count, 1u);
}

// ---------------------------------------------------------------------------
// Exposition formats

TEST(TelemetryText, PrometheusExpositionShape) {
  telemetry::reset();
  telemetry::counter("text.demo.count").add(2);
  telemetry::gauge("text.demo.ratio").set(0.5);
  auto& h = telemetry::histogram("text.demo.latency", 1.0);
  h.record(1.5);
  h.record(3.0);
  const std::string text = telemetry::to_text();
  EXPECT_NE(text.find("# TYPE omega_text_demo_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("omega_text_demo_count 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE omega_text_demo_ratio gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE omega_text_demo_latency histogram"),
            std::string::npos);
  // Cumulative buckets: 1.5 -> (1,2], 3.0 -> (2,4]; the +Inf bucket always
  // carries the total count.
  EXPECT_NE(text.find("omega_text_demo_latency_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("omega_text_demo_latency_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("omega_text_demo_latency_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("omega_text_demo_latency_sum 4.5"), std::string::npos);
  EXPECT_NE(text.find("omega_text_demo_latency_count 2"), std::string::npos);
}

TEST(TelemetryJson, SchemaBlockRoundTripsThroughTheParser) {
  telemetry::reset();
  telemetry::counter("json.demo.count").add(2);
  telemetry::gauge("json.demo.gauge").set(0.25);
  telemetry::histogram("json.demo.hist", 1.0).record(3.0);
  const auto doc = omega::core::metrics::telemetry_json(telemetry::snapshot());
  const auto parsed = JsonValue::parse(doc.dump());
  EXPECT_EQ(parsed.at("counters").at("json.demo.count").as_uint(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("json.demo.gauge").as_double(),
                   0.25);
  const auto& hist = parsed.at("histograms").at("json.demo.hist");
  EXPECT_EQ(hist.at("count").as_uint(), 1u);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("min").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("max").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("mean").as_double(), 3.0);
  // 3.0 clamps to the observed extremes for every quantile.
  EXPECT_DOUBLE_EQ(hist.at("p50").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("p99").as_double(), 3.0);
  const auto& buckets = hist.at("buckets").items();
  ASSERT_EQ(buckets.size(), 1u) << "only occupied buckets materialize";
  EXPECT_DOUBLE_EQ(buckets[0].at("le").as_double(), 4.0);
  EXPECT_EQ(buckets[0].at("count").as_uint(), 1u);
}

// ---------------------------------------------------------------------------
// Chrome-trace export + session-relative thread ids

TEST(TraceSession, ThreadIdsAreSessionRelative) {
  omega::util::trace::enable(64);
  omega::util::trace::record("main-span", 0.0, 1.0);
  std::thread([] { omega::util::trace::record("worker-span", 0.5, 1.0); })
      .join();
  const auto snap = omega::util::trace::take_snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.num_threads, 2u);
  std::set<std::uint32_t> tids;
  for (const auto& event : snap.events) tids.insert(event.thread_id);
  EXPECT_EQ(tids, (std::set<std::uint32_t>{0u, 1u}));

  // A later session records from a brand-new thread whose raw process-wide
  // id keeps growing; the exported id must still start at 0.
  omega::util::trace::enable(64);
  std::thread([] { omega::util::trace::record("second-session", 0.0, 1.0); })
      .join();
  const auto second = omega::util::trace::take_snapshot();
  ASSERT_EQ(second.events.size(), 1u);
  EXPECT_EQ(second.num_threads, 1u);
  EXPECT_EQ(second.events[0].thread_id, 0u);
  omega::util::trace::disable();
}

TEST(TraceSession, RingOverflowIsReportedAsDropped) {
  omega::util::trace::enable(4);
  for (int i = 0; i < 10; ++i) {
    omega::util::trace::record("spam", static_cast<double>(i), 0.25);
  }
  const auto snap = omega::util::trace::take_snapshot();
  EXPECT_EQ(snap.recorded, 10u);
  EXPECT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.dropped, 6u);
  // The drop count reaches the exported trace metadata.
  const auto doc = omega::core::metrics::chrome_trace();
  EXPECT_EQ(doc.at("otherData").at("dropped").as_uint(), 6u);
  EXPECT_EQ(doc.at("otherData").at("recorded").as_uint(), 10u);
  omega::util::trace::disable();
}

TEST(ChromeTrace, StreamedFaultyScanExportsWellFormedJson) {
  omega::util::trace::enable();
  const auto dataset = telemetry_dataset(71, 160);
  omega::io::DatasetChunkReader reader(dataset);
  auto options = telemetry_options();
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;  // force a multi-chunk scan
  omega::util::fault::FaultPlan plan;
  plan.mode = omega::util::fault::FaultMode::KernelLaunch;
  plan.rate = 0.25;
  plan.seed = 4242;
  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  const auto result = omega::core::stream_scan(
      reader, options, stream_options, [&] {
        omega::hw::gpu::GpuBackendOptions backend_options;
        backend_options.fault_plan = plan;
        return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(
            spec, pool, backend_options);
      });
  ASSERT_GT(result.profile.stream.chunks, 1u);
  ASSERT_GT(result.profile.faults.faults_injected, 0u);

  // Export, serialize, and re-parse with the repo's own strict parser.
  const std::string text = omega::core::metrics::chrome_trace().dump();
  const auto parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");
  const auto& events = parsed.at("traceEvents").items();
  ASSERT_FALSE(events.empty());
  bool saw_complete = false;
  bool saw_instant = false;
  bool saw_thread_name = false;
  bool saw_recovery = false;
  std::set<std::int64_t> tids;
  for (const auto& event : events) {
    const std::string ph = event.at("ph").as_string();
    tids.insert(event.at("tid").as_int());
    if (ph == "X") {
      saw_complete = true;
      EXPECT_GE(event.at("ts").as_double(), 0.0);
      EXPECT_GE(event.at("dur").as_double(), 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(event.at("s").as_string(), "t");
      if (event.at("name").as_string().rfind("scan.recover.", 0) == 0) {
        saw_recovery = true;
      }
    } else if (ph == "M") {
      saw_thread_name = true;
      EXPECT_EQ(event.at("name").as_string(), "thread_name");
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_recovery) << "faulty scan must export recovery instants";
  EXPECT_EQ(*tids.begin(), 0) << "thread ids must be session-relative";
  omega::util::trace::disable();
}

// ---------------------------------------------------------------------------
// Progress reporting

TEST(ProgressRateLimit, VirtualClockGatesEmissions) {
  double now = 0.0;
  std::vector<ProgressUpdate> updates;
  ProgressReporter reporter(
      [&](const ProgressUpdate& update) { updates.push_back(update); },
      /*interval_seconds=*/1.0, [&] { return now; });
  reporter.begin(100, 10);
  EXPECT_EQ(updates.size(), 1u) << "begin() emits the initial update";
  reporter.advance({.positions = 10});
  reporter.advance({.positions = 10});
  EXPECT_EQ(updates.size(), 1u) << "suppressed inside the interval";
  now = 0.5;
  reporter.advance({.positions = 10});
  EXPECT_EQ(updates.size(), 1u);
  now = 1.0;
  reporter.advance({.positions = 10});
  EXPECT_EQ(updates.size(), 2u) << "interval boundary emits";
  EXPECT_EQ(updates.back().positions_done, 40u)
      << "suppressed deltas still accumulate";
  now = 1.2;
  reporter.advance({.positions = 20, .faults = 3});
  EXPECT_EQ(updates.size(), 2u);
  reporter.finish();
  EXPECT_EQ(updates.size(), 3u) << "finish() always emits";
  EXPECT_TRUE(updates.back().final);
  EXPECT_EQ(updates.back().positions_done, 60u);
  EXPECT_EQ(updates.back().faults, 3u);
  reporter.finish();
  EXPECT_EQ(updates.size(), 3u) << "finish() is idempotent";
}

TEST(ProgressRateLimit, ThroughputAndEtaFromTheClock) {
  double now = 0.0;
  ProgressUpdate update;
  ProgressReporter reporter([&](const ProgressUpdate& u) { update = u; }, 1.0,
                            [&] { return now; });
  reporter.begin(100);
  now = 2.0;
  reporter.advance({.positions = 50});
  EXPECT_DOUBLE_EQ(update.elapsed_seconds, 2.0);
  EXPECT_DOUBLE_EQ(update.positions_per_second, 25.0);
  EXPECT_DOUBLE_EQ(update.eta_seconds, 2.0) << "50 left at 25/s";
  EXPECT_NE(update.line().find("50/100 positions"), std::string::npos);
  EXPECT_NE(update.line().find("ETA"), std::string::npos);
}

TEST(ProgressRateLimit, AdvanceWithoutBeginSelfStarts) {
  double now = 5.0;
  std::vector<ProgressUpdate> updates;
  ProgressReporter reporter(
      [&](const ProgressUpdate& update) { updates.push_back(update); }, 1.0,
      [&] { return now; });
  reporter.advance({.positions = 1});
  ASSERT_EQ(updates.size(), 1u) << "first advance emits when never begun";
  EXPECT_EQ(updates.back().positions_done, 1u);
  EXPECT_EQ(updates.back().positions_total, 0u);
  reporter.finish();
  EXPECT_TRUE(updates.back().final);
}

TEST(ProgressScan, ScanDriverFeedsTheReporter) {
  const auto dataset = telemetry_dataset(81);
  auto options = telemetry_options();
  std::vector<ProgressUpdate> updates;
  ProgressReporter reporter(
      [&](const ProgressUpdate& update) { updates.push_back(update); },
      /*interval_seconds=*/0.0);  // emit every advance
  options.progress = &reporter;
  const auto result = omega::core::scan(dataset, options);
  ASSERT_FALSE(updates.empty());
  EXPECT_TRUE(updates.back().final);
  EXPECT_EQ(updates.back().positions_total, valid_scores(result));
  EXPECT_EQ(updates.back().positions_done, valid_scores(result));
}

TEST(ProgressScan, StreamScanReportsChunks) {
  const auto dataset = telemetry_dataset(82, 160);
  omega::io::DatasetChunkReader reader(dataset);
  auto options = telemetry_options();
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  std::vector<ProgressUpdate> updates;
  ProgressReporter reporter(
      [&](const ProgressUpdate& update) { updates.push_back(update); }, 0.0);
  options.progress = &reporter;
  const auto result =
      omega::core::stream_scan(reader, options, stream_options);
  ASSERT_FALSE(updates.empty());
  EXPECT_TRUE(updates.back().final);
  EXPECT_EQ(updates.back().chunks_total, result.profile.stream.chunks);
  EXPECT_EQ(updates.back().chunks_done, result.profile.stream.chunks);
  EXPECT_EQ(updates.back().positions_done, valid_scores(result));
}

// ---------------------------------------------------------------------------
// Per-scan telemetry reconciles with ScanProfile counters

TEST(TelemetryScan, CpuScanPopulatesStageHistograms) {
  const auto dataset = telemetry_dataset(91);
  const auto result = omega::core::scan(dataset, telemetry_options());
  const auto& tel = result.profile.telemetry;
  const auto* reset_hist = tel.find_histogram("scan.reset_seconds");
  const auto* extend_hist = tel.find_histogram("scan.extend_seconds");
  const auto* relocate_hist = tel.find_histogram("scan.relocate_seconds");
  ASSERT_NE(reset_hist, nullptr);
  ASSERT_NE(extend_hist, nullptr);
  ASSERT_NE(relocate_hist, nullptr);
  EXPECT_GT(reset_hist->count, 0u);
  EXPECT_GT(extend_hist->count, 0u);
  // Every scored position either reset or relocated the DP matrix.
  EXPECT_EQ(reset_hist->count + relocate_hist->count, valid_scores(result));
}

TEST(TelemetryScan, GpuLaunchHistogramMatchesKernelLaunchCounts) {
  const auto dataset = telemetry_dataset(92);
  omega::par::ThreadPool pool(2);
  omega::hw::gpu::GpuOmegaBackend gpu(omega::hw::tesla_k80(), pool, {});
  const auto result = omega::core::scan(
      dataset, telemetry_options(),
      [&] { return omega::core::borrow_backend(gpu); });
  const auto* launches =
      result.profile.telemetry.find_histogram("gpu.launch_modeled_seconds");
  ASSERT_NE(launches, nullptr);
  EXPECT_GT(launches->count, 0u);
  EXPECT_EQ(launches->count, gpu.accounting().positions_kernel1 +
                                 gpu.accounting().positions_kernel2);
}

TEST(TelemetryScan, FpgaLaunchHistogramCountsCompletedPositions) {
  const auto dataset = telemetry_dataset(93);
  omega::hw::fpga::FpgaOmegaBackend fpga(omega::hw::alveo_u200(), {});
  const auto result = omega::core::scan(
      dataset, telemetry_options(),
      [&] { return omega::core::borrow_backend(fpga); });
  const auto* launches =
      result.profile.telemetry.find_histogram("fpga.launch_modeled_seconds");
  ASSERT_NE(launches, nullptr);
  EXPECT_EQ(launches->count, valid_scores(result));
}

TEST(TelemetryScan, RetryHistogramsReconcileWithFaultCounters) {
  const auto dataset = telemetry_dataset(94);
  omega::util::fault::FaultPlan plan;
  plan.mode = omega::util::fault::FaultMode::KernelLaunch;
  plan.rate = 0.3;
  plan.seed = 777;
  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  const auto result = omega::core::scan(
      dataset, telemetry_options(), [&] {
        omega::hw::gpu::GpuBackendOptions backend_options;
        backend_options.fault_plan = plan;
        return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(
            spec, pool, backend_options);
      });
  const auto& faults = result.profile.faults;
  ASSERT_GT(faults.retries, 0u);
  const auto& tel = result.profile.telemetry;
  const auto* backoff = tel.find_histogram("scan.retry.backoff_seconds");
  ASSERT_NE(backoff, nullptr);
  EXPECT_EQ(backoff->count, faults.retries)
      << "one backoff sample per retry";
  const auto* attempts = tel.find_histogram("scan.retry.attempt_seconds");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->count, faults.errors_caught)
      << "one attempt-latency sample per caught error";
}

TEST(TelemetryScan, StreamHistogramsReconcileWithStreamProfile) {
  const auto dataset = telemetry_dataset(95, 160);
  omega::io::DatasetChunkReader reader(dataset);
  auto options = telemetry_options();
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 40;
  const auto result =
      omega::core::stream_scan(reader, options, stream_options);
  ASSERT_GT(result.profile.stream.chunks, 1u);
  const auto& tel = result.profile.telemetry;
  const auto* fetch = tel.find_histogram("stream.chunk_fetch_seconds");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->count, result.profile.stream.chunks)
      << "one fetch sample per chunk";
  const auto* chunk_scan = tel.find_histogram("stream.chunk_scan_seconds");
  ASSERT_NE(chunk_scan, nullptr);
  EXPECT_GE(chunk_scan->count, result.profile.stream.chunks);
  bool saw_overlap_gauge = false;
  for (const auto& [name, value] : tel.gauges) {
    if (name == "stream.io_overlap_ratio") {
      saw_overlap_gauge = true;
      EXPECT_DOUBLE_EQ(value, result.profile.stream.io_overlap_ratio());
    }
  }
  EXPECT_TRUE(saw_overlap_gauge);
}

TEST(TelemetryScan, MetricsDocumentCarriesTheTelemetryBlock) {
  const auto dataset = telemetry_dataset(96);
  const auto result = omega::core::scan(dataset, telemetry_options());
  const auto doc = omega::core::metrics::scan_metrics("tel", result.profile);
  const auto parsed = JsonValue::parse(doc.dump(0));
  EXPECT_EQ(parsed.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& tel = parsed.at("telemetry");
  ASSERT_TRUE(tel.is_object());
  const auto* hist = tel.at("histograms").find("scan.extend_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->at("count").as_uint(), 0u);
}

// ---------------------------------------------------------------------------
// One ledger per scan: concurrent scans in one process

omega::io::Dataset ledger_dataset(std::uint64_t seed) {
  return omega::sim::make_dataset({.snps = 3'000,
                                   .samples = 24,
                                   .locus_length_bp = 3'000'000,
                                   .rho = 25.0,
                                   .seed = seed});
}

omega::core::ScannerOptions ledger_options() {
  omega::core::ScannerOptions options;
  options.config.grid_size = 400;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 300;
  options.config.min_window = 40;
  return options;
}

omega::core::ScanResult ledger_stream(const omega::io::Dataset& dataset) {
  omega::io::DatasetChunkReader reader(dataset);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 700;
  return omega::core::stream_scan(reader, ledger_options(), stream_options);
}

/// A profile's telemetry reconciles with its own counters: one reset or
/// relocate sample per matrix advance, and the extend stage's seconds are
/// its histogram's sum.
void expect_reconciled(const omega::core::ScanProfile& profile) {
  const auto& tel = profile.telemetry;
  const auto* reset = tel.find_histogram("scan.reset_seconds");
  const auto* relocate = tel.find_histogram("scan.relocate_seconds");
  const auto* extend = tel.find_histogram("scan.extend_seconds");
  ASSERT_NE(extend, nullptr);
  const std::uint64_t advances = (reset != nullptr ? reset->count : 0) +
                                 (relocate != nullptr ? relocate->count : 0);
  EXPECT_EQ(advances,
            profile.relocation.resets + profile.relocation.relocations);
  EXPECT_DOUBLE_EQ(extend->sum, profile.stages.ld_extend_seconds);
}

/// Every non-timing field of `profile` equals the same scan run alone:
/// scores, counters, and every telemetry counter and histogram count.
void expect_same_as_alone(const omega::core::ScanResult& result,
                          const omega::core::ScanResult& alone) {
  ASSERT_EQ(result.scores.size(), alone.scores.size());
  for (std::size_t i = 0; i < result.scores.size(); ++i) {
    EXPECT_EQ(result.scores[i].valid, alone.scores[i].valid) << i;
    EXPECT_EQ(result.scores[i].max_omega, alone.scores[i].max_omega) << i;
  }
  const auto& p = result.profile;
  const auto& q = alone.profile;
  EXPECT_EQ(p.positions_scanned, q.positions_scanned);
  EXPECT_EQ(p.omega_evaluations, q.omega_evaluations);
  EXPECT_EQ(p.r2_fetched, q.r2_fetched);
  EXPECT_EQ(p.relocation.resets, q.relocation.resets);
  EXPECT_EQ(p.relocation.relocations, q.relocation.relocations);
  EXPECT_EQ(p.relocation.cells_reused, q.relocation.cells_reused);
  EXPECT_EQ(p.relocation.cells_recomputed, q.relocation.cells_recomputed);
  EXPECT_EQ(p.faults.errors_caught, q.faults.errors_caught);
  EXPECT_EQ(p.faults.quarantined_positions, q.faults.quarantined_positions);
  EXPECT_EQ(p.kernel.positions, q.kernel.positions);
  EXPECT_EQ(p.stream.chunks, q.stream.chunks);
  EXPECT_EQ(p.ld.panel_packs, q.ld.panel_packs);
  EXPECT_EQ(p.ld.panel_hits, q.ld.panel_hits);
  EXPECT_EQ(p.telemetry.counters, q.telemetry.counters);
  ASSERT_EQ(p.telemetry.histograms.size(), q.telemetry.histograms.size());
  for (std::size_t i = 0; i < p.telemetry.histograms.size(); ++i) {
    const auto& [name, hist] = p.telemetry.histograms[i];
    EXPECT_EQ(name, q.telemetry.histograms[i].first);
    EXPECT_EQ(hist.count, q.telemetry.histograms[i].second.count) << name;
  }
}

/// Runs `first` and `second` at the same time on two threads.
template <class First, class Second>
std::pair<omega::core::ScanResult, omega::core::ScanResult> run_together(
    First first, Second second) {
  std::atomic<int> ready{0};
  const auto start_together = [&ready] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
  };
  omega::core::ScanResult a;
  omega::core::ScanResult b;
  std::thread other([&] {
    start_together();
    b = second();
  });
  start_together();
  a = first();
  other.join();
  return {std::move(a), std::move(b)};
}

TEST(TelemetryLedger, ConcurrentScansKeepTheirOwnTelemetry) {
  const auto left = ledger_dataset(811);
  const auto right = ledger_dataset(812);
  const auto left_alone = omega::core::scan(left, ledger_options());
  const auto right_alone = omega::core::scan(right, ledger_options());
  const auto [a, b] = run_together(
      [&] { return omega::core::scan(left, ledger_options()); },
      [&] { return omega::core::scan(right, ledger_options()); });
  expect_reconciled(a.profile);
  expect_reconciled(b.profile);
  expect_same_as_alone(a, left_alone);
  expect_same_as_alone(b, right_alone);
}

TEST(TelemetryLedger, ScanBesideStreamKeepsItsOwnTelemetry) {
  const auto left = ledger_dataset(813);
  const auto right = ledger_dataset(814);
  const auto scan_alone = omega::core::scan(left, ledger_options());
  const auto stream_alone = ledger_stream(right);
  ASSERT_GT(stream_alone.profile.stream.chunks, 1u);
  const auto [a, b] = run_together(
      [&] { return omega::core::scan(left, ledger_options()); },
      [&] { return ledger_stream(right); });
  expect_reconciled(a.profile);
  expect_reconciled(b.profile);
  expect_same_as_alone(a, scan_alone);
  expect_same_as_alone(b, stream_alone);
}

// ---------------------------------------------------------------------------
// metrics-diff regression engine

JsonValue diff_fixture(double omega_seconds, double throughput,
                       const std::string& hostname = "host-a",
                       const std::string& cpu = "cpu-a") {
  auto doc = JsonValue::object();
  doc.set("schema", omega::core::metrics::kScanSchema);
  doc.set("schema_version", omega::core::metrics::kSchemaVersion);
  doc.set("name", "fixture");
  auto host = JsonValue::object();
  host.set("hostname", hostname);
  host.set("cpu", cpu);
  doc.set("host", std::move(host));
  auto stages = JsonValue::object();
  stages.set("omega_seconds", omega_seconds);
  stages.set("ld_seconds", 0.5);
  stages.set("tiny_seconds", 5e-6);
  doc.set("stages", std::move(stages));
  auto counters = JsonValue::object();
  counters.set("omega_evaluations", 1000);
  doc.set("counters", std::move(counters));
  doc.set("throughput_per_s", throughput);
  return doc;
}

TEST(MetricsDiff, DirectionInferredFromThePath) {
  using omega::core::metrics::Direction;
  using omega::core::metrics::metric_direction;
  EXPECT_EQ(metric_direction("stages.omega_seconds"),
            Direction::LowerIsBetter);
  EXPECT_EQ(metric_direction("fpga.stall_cycles"), Direction::LowerIsBetter);
  EXPECT_EQ(metric_direction("throughput_per_s"), Direction::HigherIsBetter);
  EXPECT_EQ(metric_direction("gpu.omega_throughput"),
            Direction::HigherIsBetter);
  // "ratio" outranks the lower-is-better tokens even when both appear.
  EXPECT_EQ(metric_direction("stream.io_overlap_ratio"),
            Direction::HigherIsBetter);
  EXPECT_EQ(metric_direction("counters.omega_evaluations"),
            Direction::Informational);
}

TEST(MetricsDiff, IdenticalDocumentsPass) {
  const auto report = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(1.0, 100.0));
  EXPECT_TRUE(report.error.empty());
  EXPECT_FALSE(report.regressed);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_FALSE(report.deltas.empty());
}

TEST(MetricsDiff, StageTimeRegressionBeyondThresholdGates) {
  // 25% slower on a watched time metric with the default 20% threshold.
  const auto report = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(1.25, 100.0));
  EXPECT_TRUE(report.regressed);
  bool flagged = false;
  for (const auto& delta : report.deltas) {
    if (delta.path == "stages.omega_seconds") {
      flagged = delta.regressed;
      EXPECT_NEAR(delta.change, 0.25, 1e-12);
    }
  }
  EXPECT_TRUE(flagged);
  // 10% slower stays under the threshold.
  const auto ok = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(1.1, 100.0));
  EXPECT_FALSE(ok.regressed);
  // Improvements never gate.
  const auto faster = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(0.5, 100.0));
  EXPECT_FALSE(faster.regressed);
}

TEST(MetricsDiff, ThroughputDropGatesInTheOtherDirection) {
  const auto report = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(1.0, 70.0));
  EXPECT_TRUE(report.regressed);
  const auto faster = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(1.0, 130.0));
  EXPECT_FALSE(faster.regressed);
}

TEST(MetricsDiff, MinSecondsFloorSuppressesSubThresholdTimeNoise) {
  // tiny_seconds grows 10x but its baseline (5 us) is below the 100 us
  // floor, so relative noise there must never gate.
  auto baseline = diff_fixture(1.0, 100.0);
  auto candidate = diff_fixture(1.0, 100.0);
  candidate.at("stages").set("tiny_seconds", 5e-5);
  const auto report =
      omega::core::metrics::diff_metrics(baseline, candidate);
  EXPECT_FALSE(report.regressed);
}

TEST(MetricsDiff, HostMismatchRefusedUnlessAllowed) {
  const auto baseline = diff_fixture(1.0, 100.0, "host-a", "cpu-a");
  const auto candidate = diff_fixture(1.0, 100.0, "host-b", "cpu-b");
  const auto refused =
      omega::core::metrics::diff_metrics(baseline, candidate);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.deltas.empty());
  EXPECT_FALSE(refused.regressed);
  omega::core::metrics::DiffOptions options;
  options.allow_cross_host = true;
  const auto allowed =
      omega::core::metrics::diff_metrics(baseline, candidate, options);
  EXPECT_TRUE(allowed.error.empty());
  EXPECT_FALSE(allowed.deltas.empty());
}

TEST(MetricsDiff, SchemaVersionMismatchRefused) {
  auto baseline = diff_fixture(1.0, 100.0);
  auto candidate = diff_fixture(1.0, 100.0);
  candidate.set("schema_version", omega::core::metrics::kSchemaVersion - 1);
  const auto report =
      omega::core::metrics::diff_metrics(baseline, candidate);
  EXPECT_FALSE(report.error.empty());
}

TEST(MetricsDiff, AllowSchemaDriftComparesIntersectingKeys) {
  // A v(N-1) baseline vs a vN candidate: with drift allowed the diff runs
  // over the intersecting keys instead of refusing, so old baselines stay
  // usable across a schema bump (e.g. v9 files against v10 "hetero" docs).
  auto baseline = diff_fixture(1.0, 100.0);
  baseline.set("schema_version", omega::core::metrics::kSchemaVersion - 1);
  auto candidate = diff_fixture(1.0, 100.0);
  auto hetero = JsonValue::object();
  hetero.set("enabled", false);
  candidate.set("hetero", std::move(hetero));

  omega::core::metrics::DiffOptions options;
  options.allow_schema_drift = true;
  const auto report =
      omega::core::metrics::diff_metrics(baseline, candidate, options);
  EXPECT_TRUE(report.error.empty());
  EXPECT_FALSE(report.deltas.empty());
  EXPECT_FALSE(report.regressed);
  // Candidate-only blocks never show up as deltas.
  for (const auto& delta : report.deltas) {
    EXPECT_EQ(delta.path.rfind("hetero", 0), std::string::npos) << delta.path;
  }
  // A genuine regression still gates across the drift.
  auto slower = diff_fixture(1.5, 100.0);
  EXPECT_TRUE(
      omega::core::metrics::diff_metrics(baseline, slower, options).regressed);
}

TEST(MetricsDiff, SchemaDriftDoesNotWaiveSchemaNameOrHostChecks) {
  omega::core::metrics::DiffOptions options;
  options.allow_schema_drift = true;
  // Different schema *name* is never comparable, drift or not.
  auto wrong_schema = diff_fixture(1.0, 100.0);
  wrong_schema.set("schema", "omega.bench");
  const auto refused_schema = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), wrong_schema, options);
  EXPECT_FALSE(refused_schema.error.empty());
  // Cross-host comparison stays refused unless allow_cross_host is set too.
  const auto refused_host = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0, "host-a", "cpu-a"),
      diff_fixture(1.0, 100.0, "host-b", "cpu-b"), options);
  EXPECT_FALSE(refused_host.error.empty());
}

TEST(MetricsDiff, WatchFiltersGateAndPromote) {
  // Watching only "counters" promotes the informational counter to gating
  // and ignores the blatant stage regression.
  omega::core::metrics::DiffOptions options;
  options.watch = {"counters"};
  auto baseline = diff_fixture(1.0, 100.0);
  auto regressed_stage = diff_fixture(10.0, 100.0);
  EXPECT_FALSE(
      omega::core::metrics::diff_metrics(baseline, regressed_stage, options)
          .regressed);
  auto changed_counter = diff_fixture(1.0, 100.0);
  changed_counter.at("counters").set("omega_evaluations", 2000);
  EXPECT_TRUE(
      omega::core::metrics::diff_metrics(baseline, changed_counter, options)
          .regressed);
}

TEST(MetricsDiff, RenderedTableListsRegressions) {
  const auto report = omega::core::metrics::diff_metrics(
      diff_fixture(1.0, 100.0), diff_fixture(2.0, 100.0));
  const std::string table = omega::core::metrics::render_diff_table(report);
  EXPECT_NE(table.find("stages.omega_seconds"), std::string::npos);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
}

}  // namespace
