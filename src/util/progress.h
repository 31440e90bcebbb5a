#pragma once
// Rate-limited live progress reporting for long scans. The scan drivers call
// advance() once per scored position / finished chunk; the reporter
// aggregates, computes throughput and ETA, and forwards at most one update
// per `interval_seconds` to a caller-supplied sink (plus one guaranteed
// final update from finish()). The clock is injectable so rate limiting is
// testable under a virtual clock, mirroring core/resilience.h's approach to
// backoff timing.

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace omega::util {

struct ProgressUpdate {
  std::uint64_t positions_done = 0;
  std::uint64_t positions_total = 0;  // 0 when unknown
  std::uint64_t chunks_done = 0;
  std::uint64_t chunks_total = 0;  // 0 for non-streaming scans
  std::uint64_t faults = 0;        // retries consumed by the recovery engine
  std::uint64_t quarantined = 0;   // positions given up on
  double elapsed_seconds = 0.0;
  double positions_per_second = 0.0;
  double eta_seconds = -1.0;  // negative when not estimable yet
  bool final = false;         // true only for the finish() update

  /// One-line human-readable rendering (used by stderr_sink()).
  [[nodiscard]] std::string line() const;
};

class ProgressReporter {
 public:
  using Clock = std::function<double()>;  // monotonic seconds
  using Sink = std::function<void(const ProgressUpdate&)>;

  struct Delta {
    std::uint64_t positions = 0;
    std::uint64_t chunks = 0;
    std::uint64_t faults = 0;
    std::uint64_t quarantined = 0;
  };

  /// `interval_seconds` is the minimum spacing between emitted updates;
  /// `clock` defaults to the process steady clock and exists for tests.
  explicit ProgressReporter(Sink sink, double interval_seconds = 1.0,
                            Clock clock = {});

  /// Declares the workload and emits the initial (0-progress) update so the
  /// sink shows life before the first slow chunk completes. A resumed scan
  /// passes the already-committed counts as `positions_resumed` /
  /// `chunks_resumed`: they show up in positions_done immediately, but the
  /// throughput and ETA are derived only from positions scored *this* run,
  /// so a resume does not inherit a stale rate from the interrupted run.
  void begin(std::uint64_t positions_total, std::uint64_t chunks_total = 0,
             std::uint64_t positions_resumed = 0,
             std::uint64_t chunks_resumed = 0);

  /// Accumulates progress; emits an update only if at least the configured
  /// interval elapsed since the last emission. Thread-safe.
  void advance(const Delta& delta);

  /// Emits the final update unconditionally (unless nothing was ever begun
  /// or advanced).
  void finish();

  /// Sink writing ProgressUpdate::line() to stderr.
  [[nodiscard]] static Sink stderr_sink();

 private:
  void emit_locked(bool final);

  mutable std::mutex mutex_;
  Sink sink_;
  Clock clock_;
  double interval_seconds_;
  double start_time_ = 0.0;
  double last_emit_time_ = 0.0;
  bool started_ = false;
  bool active_ = false;  // true between begin()/first advance and finish()
  std::uint64_t baseline_positions_ = 0;  // preloaded by a resume
  ProgressUpdate state_;
};

}  // namespace omega::util
