#pragma once
// Fault-tolerant scan runtime: structured backend errors, the retry/backoff +
// quarantine recovery engine, and the CPU-degradation decorator.
//
// Failure semantics (docs/ROBUSTNESS.md has the full state machine):
//
//   * A backend signals failure by throwing BackendError. KernelLaunch and
//     Timeout are transient (retryable); DeviceLost is terminal for the
//     backend instance.
//   * recover_max_omega() retries transient failures up to
//     RecoveryPolicy::max_retries with exponential backoff charged to a
//     virtual clock (no wall-sleep), validates results for NaN/Inf poisoning,
//     and gives up when retries are exhausted; the scan driver then
//     quarantines the position (marks it invalid) instead of aborting the
//     whole-genome scan.
//   * FallbackBackend wraps an accelerator backend and demotes it to the CPU
//     nested loop mid-scan on DeviceLost, producing bit-identical omegas on
//     the degraded positions (the CPU loop is the reference arithmetic).
//
// Every recovery action is counted into the telemetry registry — and so into
// the running scan's scope, from which ScanProfile::faults (metrics schema
// v3) is derived — and emitted as a trace instant when tracing is on.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/scanner.h"

namespace omega::core {

enum class BackendErrorKind {
  KernelLaunch,  // launch/enqueue failed before any work ran
  Timeout,       // modeled device time exceeded its budget
  DeviceLost,    // device dropped permanently; instance is unusable
};

[[nodiscard]] const char* backend_error_kind_name(BackendErrorKind kind) noexcept;

/// Structured backend failure. Thrown by accelerator backends (fault
/// injection or modeled-timeout enforcement) and consumed by the recovery
/// engine; anything else escaping a backend is a programming error and
/// propagates out of the scan.
class BackendError : public std::runtime_error {
 public:
  BackendError(BackendErrorKind kind, std::string backend, const std::string& detail);

  [[nodiscard]] BackendErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& backend() const noexcept { return backend_; }
  /// Transient errors are worth retrying on the same instance; DeviceLost is
  /// not (the instance never recovers).
  [[nodiscard]] bool retryable() const noexcept {
    return kind_ != BackendErrorKind::DeviceLost;
  }

 private:
  BackendErrorKind kind_;
  std::string backend_;
};

/// Decorator implementing graceful degradation: delegates to the primary
/// (accelerator) backend until it throws DeviceLost, then permanently demotes
/// to the CPU nested loop — including recomputing the position that observed
/// the loss, so no result is dropped. Transient errors pass through to the
/// recovery engine untouched.
class FallbackBackend final : public OmegaBackend {
 public:
  /// `kind` selects the CPU kernel body used after degradation (the scan
  /// driver passes its resolved --cpu-kernel choice so degraded positions use
  /// the same arithmetic the pure-CPU scan would).
  explicit FallbackBackend(std::unique_ptr<OmegaBackend> primary,
                           CpuKernelKind kind = CpuKernelKind::Auto);

  [[nodiscard]] std::string name() const override;
  OmegaResult max_omega(const DpMatrix& m,
                        const GridPosition& position) override;
  void contribute(ScanProfile& profile) const override;

  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

 private:
  std::unique_ptr<OmegaBackend> primary_;
  CpuOmegaBackend cpu_;
  bool degraded_ = false;
};

/// Outcome of one recovered position. `ok == false` means the position was
/// quarantined after the policy gave up; `result` is then default-initialized.
struct RecoveryOutcome {
  OmegaResult result;
  bool ok = false;
  /// Attempts beyond the first that this position consumed.
  std::size_t retries = 0;
  /// Failed attempts: caught BackendErrors plus rejected non-finite results.
  std::uint64_t faults = 0;
};

/// Runs backend.max_omega(m, position) under the recovery policy: transient
/// BackendErrors and (optionally) non-finite results are retried with
/// virtual-clock exponential backoff; exhaustion or a non-retryable error
/// gives up (ok == false) and leaves the quarantine decision to the caller.
/// Records into the telemetry registry: one scan.retry.attempt_seconds
/// sample per caught BackendError, one scan.retry.invalid_results count per
/// rejected result, one scan.retry.backoff_seconds sample per retry.
RecoveryOutcome recover_max_omega(OmegaBackend& backend, const DpMatrix& m,
                                  const GridPosition& position,
                                  const RecoveryPolicy& policy);

}  // namespace omega::core
