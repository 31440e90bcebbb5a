// Fault-tolerant scan runtime tests: the deterministic injector, the
// structured BackendError type, the retry/backoff + quarantine recovery
// engine, graceful CPU degradation, and — end to end — fault-injected scans
// whose surviving positions stay bit-identical to the fault-free scan.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/metrics_json.h"
#include "core/resilience.h"
#include "core/scanner.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gpu_backend.h"
#include "io/dataset.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/fault.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace {

using omega::core::BackendError;
using omega::core::BackendErrorKind;
using omega::core::FaultRecoveryStats;
using omega::core::OmegaResult;
using omega::core::RecoveryPolicy;
using omega::util::fault::FaultInjector;
using omega::util::fault::FaultMode;
using omega::util::fault::FaultPlan;

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultPlan plan_of(FaultMode mode, double rate, std::uint64_t seed = 99) {
  FaultPlan plan;
  plan.mode = mode;
  plan.rate = rate;
  plan.seed = seed;
  return plan;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const auto plan = plan_of(FaultMode::Mixed, 0.3);
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "call " << i;
  }
  EXPECT_EQ(a.counters().total_injected(), b.counters().total_injected());
  EXPECT_GT(a.counters().total_injected(), 0u);
  EXPECT_EQ(a.counters().calls, 2'000u);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(plan_of(FaultMode::KernelLaunch, 0.5, 1));
  FaultInjector b(plan_of(FaultMode::KernelLaunch, 0.5, 2));
  bool diverged = false;
  for (int i = 0; i < 500 && !diverged; ++i) diverged = a.next() != b.next();
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, DisabledPlansNeverFire) {
  FaultInjector none(plan_of(FaultMode::None, 1.0));
  FaultInjector zero_rate(plan_of(FaultMode::KernelLaunch, 0.0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(none.next(), FaultMode::None);
    EXPECT_EQ(zero_rate.next(), FaultMode::None);
  }
  EXPECT_EQ(none.counters().total_injected(), 0u);
  EXPECT_EQ(zero_rate.counters().total_injected(), 0u);
}

TEST(FaultInjector, TriggerWindowBoundsInjection) {
  auto plan = plan_of(FaultMode::KernelLaunch, 1.0);
  plan.window_begin = 5;
  plan.window_end = 10;
  FaultInjector injector(plan);
  for (std::uint64_t call = 0; call < 20; ++call) {
    const auto mode = injector.next();
    if (call >= 5 && call < 10) {
      EXPECT_EQ(mode, FaultMode::KernelLaunch) << "call " << call;
    } else {
      EXPECT_EQ(mode, FaultMode::None) << "call " << call;
    }
  }
  EXPECT_EQ(injector.counters().injected_kernel_launch, 5u);
}

TEST(FaultInjector, DeviceLossIsPermanent) {
  FaultPlan plan;
  plan.device_lost_after = 3;
  FaultInjector injector(plan);
  EXPECT_EQ(injector.next(), FaultMode::None);
  EXPECT_EQ(injector.next(), FaultMode::None);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(injector.next(), FaultMode::DeviceLost);
    EXPECT_TRUE(injector.device_lost());
  }
}

TEST(FaultInjector, MixedModeProducesOnlyTransientFaults) {
  FaultInjector injector(plan_of(FaultMode::Mixed, 1.0));
  bool saw_launch = false, saw_timeout = false, saw_nan = false;
  for (int i = 0; i < 300; ++i) {
    const auto mode = injector.next();
    ASSERT_TRUE(mode == FaultMode::KernelLaunch ||
                mode == FaultMode::Timeout || mode == FaultMode::TransientNan);
    saw_launch |= mode == FaultMode::KernelLaunch;
    saw_timeout |= mode == FaultMode::Timeout;
    saw_nan |= mode == FaultMode::TransientNan;
  }
  EXPECT_TRUE(saw_launch);
  EXPECT_TRUE(saw_timeout);
  EXPECT_TRUE(saw_nan);
}

TEST(FaultPlanTest, NamesRoundTripAndValidate) {
  using omega::util::fault::mode_from_name;
  EXPECT_EQ(mode_from_name("none"), FaultMode::None);
  EXPECT_EQ(mode_from_name("kernel-launch"), FaultMode::KernelLaunch);
  EXPECT_EQ(mode_from_name("timeout"), FaultMode::Timeout);
  EXPECT_EQ(mode_from_name("nan"), FaultMode::TransientNan);
  EXPECT_EQ(mode_from_name("device-lost"), FaultMode::DeviceLost);
  EXPECT_EQ(mode_from_name("mixed"), FaultMode::Mixed);
  EXPECT_THROW((void)mode_from_name("cosmic-ray"), std::invalid_argument);

  FaultPlan bad_rate;
  bad_rate.rate = 1.5;
  EXPECT_THROW(bad_rate.validate(), std::invalid_argument);
  FaultPlan bad_window;
  bad_window.window_begin = 7;
  bad_window.window_end = 7;
  EXPECT_THROW(bad_window.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BackendError + RecoveryPolicy
// ---------------------------------------------------------------------------

TEST(BackendErrorTest, CarriesKindBackendAndRetryability) {
  const BackendError launch(BackendErrorKind::KernelLaunch, "gpu-sim", "enqueue failed");
  EXPECT_EQ(launch.kind(), BackendErrorKind::KernelLaunch);
  EXPECT_EQ(launch.backend(), "gpu-sim");
  EXPECT_TRUE(launch.retryable());
  EXPECT_NE(std::string(launch.what()).find("gpu-sim"), std::string::npos);
  EXPECT_NE(std::string(launch.what()).find("enqueue failed"), std::string::npos);

  EXPECT_TRUE(BackendError(BackendErrorKind::Timeout, "x", "y").retryable());
  EXPECT_FALSE(BackendError(BackendErrorKind::DeviceLost, "x", "y").retryable());
}

TEST(RecoveryPolicyTest, RejectsNonsense) {
  RecoveryPolicy bad;
  bad.backoff_multiplier = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  RecoveryPolicy negative;
  negative.backoff_initial_seconds = -1.0;
  EXPECT_THROW(negative.validate(), std::invalid_argument);
  EXPECT_NO_THROW(RecoveryPolicy{}.validate());
}

// ---------------------------------------------------------------------------
// recover_max_omega with a scripted backend
// ---------------------------------------------------------------------------

/// Fails the first `failures` calls (throwing `kind`, or returning a
/// NaN-poisoned result when `poison` is set), then succeeds.
class ScriptedBackend final : public omega::core::OmegaBackend {
 public:
  ScriptedBackend(int failures, BackendErrorKind kind, bool poison = false)
      : failures_(failures), kind_(kind), poison_(poison) {}

  [[nodiscard]] std::string name() const override { return "scripted"; }
  OmegaResult max_omega(const omega::core::DpMatrix&,
                        const omega::core::GridPosition&) override {
    ++calls_;
    if (calls_ <= failures_) {
      if (poison_) {
        OmegaResult poisoned;
        poisoned.evaluated = 4;
        poisoned.max_omega = std::numeric_limits<double>::quiet_NaN();
        return poisoned;
      }
      throw BackendError(kind_, name(), "scripted failure");
    }
    OmegaResult good;
    good.max_omega = 2.5;
    good.best_a = 1;
    good.best_b = 9;
    good.evaluated = 42;
    return good;
  }

  [[nodiscard]] int calls() const noexcept { return calls_; }

 private:
  int failures_;
  BackendErrorKind kind_;
  bool poison_;
  int calls_ = 0;
};

/// recover_max_omega under a fresh telemetry scope, with the recovery
/// counters read back from the scope the way the scan executor derives them.
std::pair<omega::core::RecoveryOutcome, FaultRecoveryStats> recover(
    ScriptedBackend& backend, const RecoveryPolicy& policy) {
  omega::util::telemetry::Scope scope;
  omega::core::RecoveryOutcome outcome;
  {
    const omega::util::telemetry::Scope::Enter enter(&scope);
    // An invalid position is fine: the backend is scripted.
    outcome = omega::core::recover_max_omega(
        backend, omega::core::DpMatrix{}, omega::core::GridPosition{}, policy);
  }
  const auto telemetry = scope.snapshot();
  FaultRecoveryStats stats;
  if (const auto* attempts =
          telemetry.find_histogram("scan.retry.attempt_seconds")) {
    stats.errors_caught = attempts->count;
  }
  if (const auto* backoff =
          telemetry.find_histogram("scan.retry.backoff_seconds")) {
    stats.retries = backoff->count;
    stats.backoff_virtual_seconds = backoff->sum;
  }
  stats.invalid_results =
      telemetry.counter_value("scan.retry.invalid_results");
  return {outcome, stats};
}

TEST(RecoverMaxOmega, RetriesTransientFailuresWithVirtualBackoff) {
  ScriptedBackend backend(2, BackendErrorKind::KernelLaunch);
  RecoveryPolicy policy;  // max_retries = 3, backoff 1e-3 doubling
  const auto [outcome, stats] = recover(backend, policy);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.retries, 2u);
  EXPECT_EQ(outcome.result.max_omega, 2.5);
  EXPECT_EQ(outcome.result.evaluated, 42u);
  EXPECT_EQ(stats.errors_caught, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(outcome.faults, 2u);
  // Backoff accrues 1e-3 then 2e-3 on the virtual clock.
  EXPECT_NEAR(stats.backoff_virtual_seconds, 3e-3, 1e-12);
  EXPECT_EQ(backend.calls(), 3);
}

TEST(RecoverMaxOmega, ExhaustedRetriesQuarantine) {
  ScriptedBackend backend(100, BackendErrorKind::Timeout);
  RecoveryPolicy policy;
  policy.max_retries = 3;
  const auto [outcome, stats] = recover(backend, policy);
  EXPECT_FALSE(outcome.ok);  // the caller quarantines
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.errors_caught, 4u);  // initial attempt + 3 retries
  EXPECT_EQ(outcome.faults, 4u);
  EXPECT_EQ(backend.calls(), 4);
}

TEST(RecoverMaxOmega, DeviceLostQuarantinesWithoutRetrying) {
  ScriptedBackend backend(100, BackendErrorKind::DeviceLost);
  RecoveryPolicy policy;
  const auto [outcome, stats] = recover(backend, policy);
  EXPECT_FALSE(outcome.ok);  // the caller quarantines
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.errors_caught, 1u);
  EXPECT_EQ(backend.calls(), 1);  // terminal error: no second attempt
}

TEST(RecoverMaxOmega, NanPoisonedResultsAreRetried) {
  ScriptedBackend backend(2, BackendErrorKind::KernelLaunch, /*poison=*/true);
  RecoveryPolicy policy;
  const auto [outcome, stats] = recover(backend, policy);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(stats.invalid_results, 2u);
  EXPECT_EQ(stats.errors_caught, 0u);
  EXPECT_TRUE(std::isfinite(outcome.result.max_omega));
}

TEST(RecoverMaxOmega, ValidationCanBeDisabled) {
  ScriptedBackend backend(100, BackendErrorKind::KernelLaunch, /*poison=*/true);
  RecoveryPolicy policy;
  policy.validate_results = false;
  const auto [outcome, stats] = recover(backend, policy);
  EXPECT_TRUE(outcome.ok);  // the poisoned result sails through unvalidated
  EXPECT_EQ(stats.invalid_results, 0u);
  EXPECT_TRUE(std::isnan(outcome.result.max_omega));
}

// ---------------------------------------------------------------------------
// FallbackBackend
// ---------------------------------------------------------------------------

TEST(FallbackBackendTest, DemotesToCpuOnDeviceLost) {
  auto primary = std::make_unique<ScriptedBackend>(100, BackendErrorKind::DeviceLost);
  omega::core::FallbackBackend fallback(std::move(primary));
  EXPECT_FALSE(fallback.degraded());
  EXPECT_EQ(fallback.name(), "scripted");

  omega::core::DpMatrix m;
  omega::core::GridPosition position;  // invalid: CPU recompute returns empty
  const auto result = fallback.max_omega(m, position);
  EXPECT_TRUE(fallback.degraded());
  EXPECT_EQ(result.evaluated, 0u);  // CPU result for the invalid position
  EXPECT_NE(fallback.name().find("degraded:cpu"), std::string::npos);

  // Later calls skip the dead primary entirely.
  (void)fallback.max_omega(m, position);
  EXPECT_TRUE(fallback.degraded());
}

TEST(FallbackBackendTest, TransientErrorsPassThrough) {
  auto primary = std::make_unique<ScriptedBackend>(1, BackendErrorKind::KernelLaunch);
  omega::core::FallbackBackend fallback(std::move(primary));
  omega::core::DpMatrix m;
  omega::core::GridPosition position;
  EXPECT_THROW((void)fallback.max_omega(m, position), BackendError);
  EXPECT_FALSE(fallback.degraded());  // transient: no demotion
  const auto result = fallback.max_omega(m, position);
  EXPECT_EQ(result.evaluated, 42u);  // primary recovered and still serves
}

// ---------------------------------------------------------------------------
// End-to-end fault-injected scans
// ---------------------------------------------------------------------------

omega::io::Dataset fault_dataset() {
  return omega::sim::make_dataset({.snps = 400,
                                   .samples = 30,
                                   .locus_length_bp = 400'000,
                                   .rho = 50.0,
                                   .seed = 777});
}

omega::core::ScannerOptions fault_options() {
  omega::core::ScannerOptions options;
  options.config.grid_size = 40;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 300;
  options.config.min_window = 40;
  return options;
}

/// Runs a GPU-sim scan with the given fault plan (threads=1 unless set).
omega::core::ScanResult gpu_scan(const omega::io::Dataset& dataset,
                                 omega::core::ScannerOptions options,
                                 const FaultPlan& plan,
                                 double modeled_timeout = 0.0) {
  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  return omega::core::scan(dataset, options, [&] {
    omega::hw::gpu::GpuBackendOptions backend_options;
    backend_options.fault_plan = plan;
    backend_options.modeled_timeout_seconds = modeled_timeout;
    return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(spec, pool,
                                                             backend_options);
  });
}

void expect_scores_identical(const std::vector<omega::core::PositionScore>& a,
                             const std::vector<omega::core::PositionScore>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position_bp, b[i].position_bp) << "position " << i;
    EXPECT_EQ(a[i].valid, b[i].valid) << "position " << i;
    if (!a[i].valid) continue;
    // Bit-for-bit: same backend arithmetic must reproduce exactly.
    EXPECT_EQ(a[i].max_omega, b[i].max_omega) << "position " << i;
    EXPECT_EQ(a[i].best_a, b[i].best_a) << "position " << i;
    EXPECT_EQ(a[i].best_b, b[i].best_b) << "position " << i;
    EXPECT_EQ(a[i].evaluated, b[i].evaluated) << "position " << i;
  }
}

TEST(FaultScan, TenPercentKernelLaunchFailuresRecoverBitIdentically) {
  // The acceptance scenario: 10% of kernel launches fail; the scan completes,
  // reports recovery counters, and every non-quarantined position matches the
  // fault-free scan bit for bit.
  const auto dataset = fault_dataset();
  const auto options = fault_options();
  const auto clean = gpu_scan(dataset, options, FaultPlan{});

  auto plan = plan_of(FaultMode::KernelLaunch, 0.1, 1337);
  const auto faulty = gpu_scan(dataset, options, plan);

  const auto& faults = faulty.profile.faults;
  EXPECT_GT(faults.faults_injected, 0u);
  EXPECT_EQ(faults.faults_injected, faults.injected_kernel_launch);
  EXPECT_EQ(faults.errors_caught, faults.injected_kernel_launch);
  EXPECT_GT(faults.retries, 0u);
  EXPECT_GT(faults.backoff_virtual_seconds, 0.0);
  EXPECT_EQ(faults.degradations, 0u);

  ASSERT_EQ(faulty.scores.size(), clean.scores.size());
  for (std::size_t i = 0; i < faulty.scores.size(); ++i) {
    if (faulty.scores[i].quarantined) continue;  // retries may have run out
    EXPECT_EQ(faulty.scores[i].max_omega, clean.scores[i].max_omega)
        << "position " << i;
    EXPECT_EQ(faulty.scores[i].best_a, clean.scores[i].best_a);
    EXPECT_EQ(faulty.scores[i].best_b, clean.scores[i].best_b);
  }

  // The metrics document carries the same counters.
  const auto doc =
      omega::core::metrics::scan_metrics("fault-accept", faulty.profile);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& json_faults = doc.at("faults");
  EXPECT_EQ(json_faults.at("injected").as_uint(), faults.faults_injected);
  EXPECT_EQ(json_faults.at("retries").as_uint(), faults.retries);
  EXPECT_EQ(json_faults.at("quarantined_positions").as_uint(),
            faults.quarantined_positions);
  EXPECT_EQ(json_faults.at("degradations").as_uint(), faults.degradations);
}

TEST(FaultScan, DeviceLostAtFirstCallDegradesToBitIdenticalCpu) {
  // Device lost on the very first backend call: with CPU fallback the entire
  // scan is computed by the CPU loop and must match a pure-CPU scan exactly.
  const auto dataset = fault_dataset();
  const auto options = fault_options();
  const auto cpu = omega::core::scan(dataset, options);

  FaultPlan plan;
  plan.device_lost_after = 1;
  const auto degraded = gpu_scan(dataset, options, plan);

  EXPECT_EQ(degraded.profile.faults.degradations, 1u);
  EXPECT_EQ(degraded.profile.faults.quarantined_positions, 0u);
  expect_scores_identical(degraded.scores, cpu.scores);
}

TEST(FaultScan, DeviceLostDegradationMatchesCpuUnderThreads) {
  // Same equivalence under the work-stealing multithreaded driver: every
  // worker's backend loses its device on its first call, so every worker
  // that claimed any span degrades. Under stealing a worker can be fully
  // robbed before its first claim, so the count is active_workers (<= 4),
  // not a fixed 4.
  const auto dataset = fault_dataset();
  auto options = fault_options();
  options.threads = 4;
  const auto cpu = omega::core::scan(dataset, options);

  FaultPlan plan;
  plan.device_lost_after = 1;
  const auto degraded = gpu_scan(dataset, options, plan);

  EXPECT_EQ(degraded.profile.faults.degradations,
            degraded.profile.sched.active_workers());
  EXPECT_GE(degraded.profile.faults.degradations, 1u);
  expect_scores_identical(degraded.scores, cpu.scores);
}

TEST(FaultScan, MidScanDeviceLossSplitsGpuPrefixCpuSuffix) {
  // Device lost at the 6th backend call: the first 5 valid positions carry
  // GPU results, everything after is the CPU loop — both halves bit-exact
  // against their reference scans.
  const auto dataset = fault_dataset();
  const auto options = fault_options();
  const auto gpu_clean = gpu_scan(dataset, options, FaultPlan{});
  const auto cpu = omega::core::scan(dataset, options);

  FaultPlan plan;
  plan.device_lost_after = 6;
  const auto mixed = gpu_scan(dataset, options, plan);

  EXPECT_EQ(mixed.profile.faults.degradations, 1u);
  ASSERT_EQ(mixed.scores.size(), cpu.scores.size());
  std::size_t valid_seen = 0;
  for (std::size_t i = 0; i < mixed.scores.size(); ++i) {
    if (!mixed.scores[i].valid) continue;
    ++valid_seen;
    const auto& reference =
        valid_seen <= 5 ? gpu_clean.scores[i] : cpu.scores[i];
    EXPECT_EQ(mixed.scores[i].max_omega, reference.max_omega)
        << "valid position " << valid_seen;
    EXPECT_EQ(mixed.scores[i].best_a, reference.best_a);
    EXPECT_EQ(mixed.scores[i].best_b, reference.best_b);
  }
  EXPECT_GT(valid_seen, 5u);  // the split actually exercised both halves
}

TEST(FaultScan, CertainFailureWithoutFallbackQuarantinesEverything) {
  const auto dataset = fault_dataset();
  auto options = fault_options();
  options.recovery.fallback_to_cpu = false;
  options.recovery.max_retries = 2;

  const auto plan = plan_of(FaultMode::KernelLaunch, 1.0);
  const auto result = gpu_scan(dataset, options, plan);

  const auto& faults = result.profile.faults;
  EXPECT_GT(faults.quarantined_positions, 0u);
  EXPECT_EQ(faults.degradations, 0u);
  EXPECT_FALSE(result.has_valid());
  EXPECT_THROW((void)result.best(), std::logic_error);
  for (const auto& score : result.scores) {
    EXPECT_FALSE(score.valid);
    // Geometry-invalid positions are skipped, never quarantined; every
    // position the backend actually touched is quarantined.
    if (score.evaluated == 0 && !score.quarantined) continue;
    EXPECT_TRUE(score.quarantined);
  }
  // Quarantined count matches the flagged scores exactly.
  std::uint64_t flagged = 0;
  for (const auto& score : result.scores) flagged += score.quarantined ? 1 : 0;
  EXPECT_EQ(faults.quarantined_positions, flagged);
}

TEST(FaultScan, TransientNanResultsAreRetriedToCleanValues) {
  const auto dataset = fault_dataset();
  const auto options = fault_options();
  const auto clean = gpu_scan(dataset, options, FaultPlan{});

  const auto plan = plan_of(FaultMode::TransientNan, 0.2, 4242);
  const auto recovered = gpu_scan(dataset, options, plan);

  EXPECT_GT(recovered.profile.faults.injected_nan, 0u);
  EXPECT_GT(recovered.profile.faults.invalid_results, 0u);
  for (std::size_t i = 0; i < recovered.scores.size(); ++i) {
    if (recovered.scores[i].quarantined) continue;
    EXPECT_EQ(recovered.scores[i].max_omega, clean.scores[i].max_omega)
        << "position " << i;
  }
}

TEST(FaultScan, ModeledTimeoutWatchdogQuarantines) {
  // An impossible device-time budget trips the watchdog on every position:
  // timeouts are retryable (not device loss), so nothing degrades — the
  // whole grid quarantines instead. No fault plan involved: this exercises
  // a "real" (non-injected) BackendError through the same path.
  const auto dataset = fault_dataset();
  auto options = fault_options();
  options.recovery.max_retries = 1;
  const auto result =
      gpu_scan(dataset, options, FaultPlan{}, /*modeled_timeout=*/1e-15);

  const auto& faults = result.profile.faults;
  EXPECT_EQ(faults.faults_injected, 0u);
  EXPECT_GT(faults.errors_caught, 0u);
  EXPECT_GT(faults.quarantined_positions, 0u);
  EXPECT_EQ(faults.degradations, 0u);
  EXPECT_FALSE(result.has_valid());
}

TEST(FaultScan, FpgaBackendInjectsAndRecoversToo) {
  const auto dataset = fault_dataset();
  const auto options = fault_options();
  const auto spec = omega::hw::alveo_u200();
  auto scan_fpga = [&](const FaultPlan& plan) {
    return omega::core::scan(dataset, options, [&] {
      omega::hw::fpga::FpgaBackendOptions backend_options;
      backend_options.fault_plan = plan;
      return std::make_unique<omega::hw::fpga::FpgaOmegaBackend>(
          spec, backend_options);
    });
  };
  const auto clean = scan_fpga(FaultPlan{});
  const auto faulty = scan_fpga(plan_of(FaultMode::Mixed, 0.15, 31337));

  EXPECT_GT(faulty.profile.faults.faults_injected, 0u);
  for (std::size_t i = 0; i < faulty.scores.size(); ++i) {
    if (faulty.scores[i].quarantined) continue;
    EXPECT_EQ(faulty.scores[i].max_omega, clean.scores[i].max_omega)
        << "position " << i;
  }
}

TEST(FaultScan, RecoveryActionsEmitTraceInstants) {
  omega::util::trace::enable();
  const auto plan = plan_of(FaultMode::KernelLaunch, 0.3, 2024);
  (void)gpu_scan(fault_dataset(), fault_options(), plan);
  omega::util::trace::disable();

  bool saw_retry = false;
  for (const auto& event : omega::util::trace::snapshot()) {
    if (std::string(event.name) == "scan.recover.retry") {
      saw_retry = true;
      EXPECT_EQ(event.duration_s, 0.0);  // instants have zero duration
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(FaultScan, FaultySchedulesAreReproducible) {
  // Identical (plan, dataset, options) → identical scores AND counters.
  const auto dataset = fault_dataset();
  const auto options = fault_options();
  const auto plan = plan_of(FaultMode::Mixed, 0.25, 909);
  const auto first = gpu_scan(dataset, options, plan);
  const auto second = gpu_scan(dataset, options, plan);

  expect_scores_identical(first.scores, second.scores);
  EXPECT_EQ(first.profile.faults.faults_injected,
            second.profile.faults.faults_injected);
  EXPECT_EQ(first.profile.faults.retries, second.profile.faults.retries);
  EXPECT_EQ(first.profile.faults.quarantined_positions,
            second.profile.faults.quarantined_positions);
}

}  // namespace
