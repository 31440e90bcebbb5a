#pragma once
// Cooperative cancellation primitives for long scans. A CancelToken is a
// signal-safe atomic flag plus a reason code; scan drivers, span-engine
// workers, the streaming prefetch loop, and the accelerator launch models
// poll it between units of work and unwind with CancelledError when it
// fires. Nothing here blocks or allocates on the request path, so
// CancelToken::request() is safe to call from a POSIX signal handler.
//
// Deadlines are layered on top: a Deadline wraps an injectable monotonic
// clock (mirroring core/resilience.h's virtual-clock approach) and the scan
// driver converts expiry into a cancellation request, so a deadline and a
// SIGINT take the exact same drain path through the runtime.

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>

namespace omega::util {

/// Why a cancellation was requested. Ordered by precedence: once a token is
/// cancelled the first reason sticks (a deadline firing after a SIGINT does
/// not overwrite the signal reason).
enum class CancelReason { None = 0, Signal, Deadline, Api };

[[nodiscard]] const char* cancel_reason_name(CancelReason reason) noexcept;

/// Thrown by backends/drivers when they observe a cancelled token mid-work.
/// Deliberately NOT a core::BackendError: the retry engine must not treat a
/// cancellation as a transient fault, so recover_max_omega (which catches
/// only BackendError) lets this propagate straight to the drain path.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(std::string("scan cancelled: ") +
                           cancel_reason_name(reason)),
        reason_(reason) {}

  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// Signal-safe cancellation flag. request() and cancelled() are lock-free
/// atomics; the request timestamp exists so the drain path can report the
/// latency between the request and the last worker stopping.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. First caller wins the reason; later calls are
  /// no-ops. Safe from signal handlers (no locks, no allocation).
  void request(CancelReason reason) noexcept {
    bool expected = false;
    if (cancelled_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      reason_.store(static_cast<int>(reason), std::memory_order_release);
    }
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] CancelReason reason() const noexcept {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// Throws CancelledError if the token is cancelled; the poll used at the
  /// top of per-position loops.
  void throw_if_cancelled() const {
    if (cancelled()) throw CancelledError(reason());
  }

  /// Re-arms the token (tests and the process-wide token between CLI runs).
  /// Not signal-safe; callers must ensure no concurrent request().
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_release);
    reason_.store(static_cast<int>(CancelReason::None),
                  std::memory_order_release);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int> reason_{static_cast<int>(CancelReason::None)};
};

/// The process-wide token the CLI signal handlers flip. Library code never
/// touches this implicitly — the CLI wires it into ScannerOptions.
[[nodiscard]] CancelToken& process_cancel_token() noexcept;

/// Installs SIGINT/SIGTERM handlers that request(CancelReason::Signal) on
/// the process token. Idempotent; returns false if handler installation
/// failed (the scan still runs, just without clean signal drain).
bool install_cancel_signal_handlers() noexcept;

/// Wall-clock budget for one scan. Disabled when constructed with a
/// non-positive budget. The clock is injectable so deadline expiry is
/// testable without sleeping.
class Deadline {
 public:
  using Clock = std::function<double()>;  // monotonic seconds

  Deadline() = default;
  explicit Deadline(double budget_seconds, Clock clock = {});

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] bool expired() const;
  [[nodiscard]] double budget_seconds() const noexcept { return budget_; }

 private:
  bool enabled_ = false;
  double budget_ = 0.0;
  double start_ = 0.0;
  Clock clock_;
};

}  // namespace omega::util
