#include "core/resilience.h"

#include <cmath>

#include "util/probe.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::core {

const char* backend_error_kind_name(BackendErrorKind kind) noexcept {
  switch (kind) {
    case BackendErrorKind::KernelLaunch: return "kernel-launch";
    case BackendErrorKind::Timeout: return "timeout";
    case BackendErrorKind::DeviceLost: return "device-lost";
  }
  return "unknown";
}

BackendError::BackendError(BackendErrorKind kind, std::string backend,
                           const std::string& detail)
    : std::runtime_error(std::string(backend_error_kind_name(kind)) + " [" +
                         backend + "]: " + detail),
      kind_(kind),
      backend_(std::move(backend)) {}

void RecoveryPolicy::validate() const {
  if (backoff_initial_seconds < 0.0) {
    throw std::invalid_argument("recovery: negative initial backoff");
  }
  if (backoff_multiplier < 1.0) {
    throw std::invalid_argument("recovery: backoff multiplier must be >= 1");
  }
}

// ---------------------------------------------------------------------------
// FallbackBackend
// ---------------------------------------------------------------------------

FallbackBackend::FallbackBackend(std::unique_ptr<OmegaBackend> primary,
                                 CpuKernelKind kind)
    : primary_(std::move(primary)), cpu_(kind) {}

std::string FallbackBackend::name() const {
  return degraded_ ? primary_->name() + "+degraded:cpu" : primary_->name();
}

OmegaResult FallbackBackend::max_omega(const DpMatrix& m,
                                       const GridPosition& position) {
  if (degraded_) return cpu_.max_omega(m, position);
  try {
    return primary_->max_omega(m, position);
  } catch (const BackendError& error) {
    if (error.retryable()) throw;  // transient: recovery engine decides
    // Device lost: demote permanently and recompute this position on the
    // CPU loop so the result set stays complete.
    degraded_ = true;
    util::trace::instant("scan.recover.degrade");
    return cpu_.max_omega(m, position);
  }
}

void FallbackBackend::contribute(ScanProfile& profile) const {
  primary_->contribute(profile);
  cpu_.contribute(profile);  // kernel counters of any degraded positions
  if (degraded_) ++profile.faults.degradations;
}

// ---------------------------------------------------------------------------
// Recovery engine
// ---------------------------------------------------------------------------

namespace {

bool result_is_poisoned(const OmegaResult& result) {
  return result.evaluated > 0 && !std::isfinite(result.max_omega);
}

}  // namespace

RecoveryOutcome recover_max_omega(OmegaBackend& backend, const DpMatrix& m,
                                  const GridPosition& position,
                                  const RecoveryPolicy& policy) {
  // Distributions behind the derived fault counters: how long failed
  // attempts ran before erroring, and how the exponential backoff spread.
  // errors_caught is the attempt count, retries and backoff_virtual_seconds
  // the backoff count and sum.
  static const util::probe::Site kAttempt(nullptr,
                                          "scan.retry.attempt_seconds");
  static util::telemetry::Histogram& backoff_hist =
      util::telemetry::histogram("scan.retry.backoff_seconds");
  static util::telemetry::Counter& invalid_results =
      util::telemetry::counter("scan.retry.invalid_results");

  RecoveryOutcome outcome;
  double backoff = policy.backoff_initial_seconds;

  for (std::size_t attempt = 0;; ++attempt) {
    outcome.retries = attempt;
    {
      // Times only the attempts that end in a caught BackendError.
      util::probe::Stage stage(kAttempt);
      try {
        OmegaResult result = backend.max_omega(m, position);
        stage.discard();
        if (!policy.validate_results || !result_is_poisoned(result)) {
          outcome.result = result;
          outcome.ok = true;
          return outcome;
        }
        invalid_results.add(1);
      } catch (const BackendError& error) {
        if (!error.retryable()) {
          // Device lost with no fallback configured: give up immediately —
          // retrying a dead device only burns the retry budget.
          ++outcome.faults;
          return outcome;
        }
      }
    }
    ++outcome.faults;

    // Transient failure: back off (virtual clock) and retry, or give up.
    if (attempt >= policy.max_retries) return outcome;
    backoff_hist.record(backoff);
    backoff *= policy.backoff_multiplier;
    util::trace::instant("scan.recover.retry");
  }
}

}  // namespace omega::core
