#pragma once
// The one scan executor and its glue, shared by the two scan drivers: the
// in-memory scan (scanner.cpp) and the streaming chunked scan
// (stream_scanner.cpp). scan() is the single-resident-chunk case of the same
// code stream_scan() runs per chunk: both advance the DP matrix, run the
// recovery-wrapped backend search, and account through ScanExecutor, so the
// streamed-equals-in-memory bitwise guarantee holds by construction.
//
// Not installed API; include only from src/core/*.cpp.

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/scanner.h"
#include "ld/ld_engine.h"
#include "par/thread_pool.h"
#include "util/cancel.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace omega::core {
class HeteroExecutor;
}

namespace omega::core::detail {

struct SpanWorkerState;

/// Shared cancellation view of one scan: the caller's token (or the driver's
/// internal one when only a deadline was set) plus the scan deadline. The
/// drivers and span workers poll should_stop() between positions; deadline
/// expiry is converted into a token request so every layer — including the
/// simulator backends holding only the token — observes a single flag, and
/// signals and deadlines share the drain path. The first poll that observes
/// the request stamps `observed_seconds` (against `since_start`), which the
/// runtime finalizer turns into the drain latency.
struct CancelState {
  util::CancelToken* token = nullptr;
  util::Deadline deadline;
  /// Started at driver entry; the latency reference.
  util::Timer since_start;
  mutable std::atomic<bool> observed{false};
  mutable std::atomic<double> observed_seconds{0.0};

  [[nodiscard]] bool enabled() const noexcept { return token != nullptr; }

  /// True once the scan should stop. Thread-safe: token access is atomic and
  /// the deadline clock must tolerate concurrent calls (the steady clock and
  /// the tests' virtual clocks do).
  [[nodiscard]] bool should_stop() const {
    if (token == nullptr) return false;
    bool stop = token->cancelled();
    if (!stop && deadline.enabled() && deadline.expired()) {
      token->request(util::CancelReason::Deadline);
      stop = true;
    }
    if (stop) {
      bool expected = false;
      if (observed.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        observed_seconds.store(since_start.seconds(),
                               std::memory_order_release);
      }
    }
    return stop;
  }
};

using BackendFactory = std::function<std::unique_ptr<OmegaBackend>()>;

/// Executes one scan for either driver. Construction is the drivers' shared
/// prologue: it validates the options, resolves the CPU kernel (a forced but
/// unavailable Avx2 or Avx512 throws here, before any work) and the thread count once,
/// starts the wall clock and cancellation, enters the scan's telemetry scope
/// on the constructing thread, and builds the one execution mode the options
/// select:
///   * serial (threads == 1): one backend and one DP matrix walking the grid;
///   * span (threads > 1): the work-stealing span engine (core/span_engine.h)
///     with one backend and matrix per worker on a compute pool;
///   * hetero (options.hetero set): the heterogeneous co-scheduler
///     (core/hetero_scheduler.h) on a pool sized to its workers.
/// Backends come from `backend_factory` (nullptr: the CPU loop), wrapped in
/// FallbackBackend when recovery degrades to the CPU. Workers, matrices and
/// backends persist across run() calls, so the stream's chunk seams carry
/// the matrices over and degradation state outlives a chunk. `options` is
/// held by reference and must outlive the executor.
///
/// Accounting is one ledger per scan: every stage probe (util/probe.h) and
/// counter the scan records, on any of its threads, lands in the executor's
/// util::telemetry::Scope, from which finalize() derives the profile, so
/// concurrent scans never see each other's work. Construct and destroy the
/// executor on the same thread.
class ScanExecutor {
 public:
  ScanExecutor(const ScannerOptions& options,
               const BackendFactory& backend_factory);
  ~ScanExecutor();
  ScanExecutor(const ScanExecutor&) = delete;
  ScanExecutor& operator=(const ScanExecutor&) = delete;

  /// Sizes `result.scores` to `grid` and stamps every position's coordinate
  /// (positions no mode reaches — invalid, or skipped after a cancel — still
  /// report where they are), then fills the profile's kernel and scheduler
  /// headers.
  void begin(const std::vector<GridPosition>& grid, ScanResult& result) const;

  /// Backend name the checkpoint config hash records. Hetero hashes as "cpu":
  /// its results are bitwise identical to the CPU scan, so checkpoints resume
  /// across hetero <-> cpu runs both ways.
  [[nodiscard]] std::string config_backend_name() const;

  /// Null when the scan has neither a token nor a deadline to poll.
  [[nodiscard]] const CancelState* cancel() const noexcept {
    return cancel_.enabled() ? &cancel_ : nullptr;
  }

  /// Scores every unsettled valid position of grid range [begin, end) with
  /// `engine` (which must serve every site those positions cover). Settled
  /// positions are skipped, so a repeated call re-runs only what is still
  /// unscored. A backend that observes the cancel mid-launch
  /// (util::CancelledError) leaves its position unscored and the call returns
  /// normally; any other exception propagates, after which the caller must
  /// invalidate() before the next run().
  void run(const std::vector<GridPosition>& grid, std::size_t begin,
           std::size_t end, const ld::LdEngine& engine,
           std::vector<PositionScore>& scores, ScanProfile& profile);

  /// Marks every worker matrix dead, forcing a rebuild on the next run().
  void invalidate() noexcept;

  /// Sets profile.telemetry to the scan's scope merged with whatever a
  /// resumed checkpoint put there, folds in each worker's matrix counters,
  /// backend accounting and the wall clock, then derives every telemetry-
  /// backed field (docs/METRICS.md). Safe to call repeatedly on copies of the
  /// running profile: the stream snapshots its checkpoint totals this way.
  void finalize(ScanProfile& profile) const;

  /// The drivers' shared epilogue: the runtime census over `grid`,
  /// finalize(), and the progress reporter's close.
  void end(const std::vector<GridPosition>& grid, ScanResult& result) const;

 private:
  const ScannerOptions& options_;
  util::telemetry::Scope scope_;
  util::telemetry::Scope::Enter enter_{&scope_};
  util::Timer clock_;
  CpuKernelKind kernel_ = CpuKernelKind::Auto;
  std::size_t threads_ = 1;
  util::CancelToken internal_token_;
  CancelState cancel_;
  std::unique_ptr<HeteroExecutor> hetero_;
  std::vector<std::unique_ptr<OmegaBackend>> backends_;
  std::vector<SpanWorkerState> states_;
  std::optional<par::ThreadPool> pool_;
};

/// Whether `m` can relocate to `position` instead of resetting: reuse is
/// on, the matrix is live, and it still holds the position's left border
/// column (lo >= base()) and split row (c >= first_row()). Grid order never
/// lowers either; a position scored out of order can.
[[nodiscard]] bool can_relocate(const DpMatrix& m, bool m_live, bool reuse,
                                const GridPosition& position) noexcept;

/// Advances the DP matrix to `position`: the single home of the
/// reset-vs-relocate policy, shared by every execution mode so the
/// relocation behaviour cannot silently diverge between them. Relocation
/// retires the rows below the split c, which no reader of this or any later
/// position in grid order reads. Each stage runs under its probe
/// (scan.ld.reset / relocate / extend).
void advance_matrix(DpMatrix& m, bool& m_live, bool reuse,
                    const GridPosition& position, const ld::LdEngine& engine);

/// Folds one worker's matrix counters (relocation, r2 fetches) and its
/// backend's accounting (OmegaBackend::contribute) into `profile`.
void fold_worker(ScanProfile& profile, const DpMatrix& m,
                 const OmegaBackend& backend);

/// The one omega-search site: runs the recovery-wrapped search for one valid
/// grid position under the scan.omega.search probe and records a success
/// into `score` (valid) and the scan.positions_scanned /
/// scan.omega_evaluations counters. When recovery gives up, the position is
/// quarantined (score and scan.quarantined_positions) unless `quarantine` is
/// false: hetero's accelerator partitions re-dispatch it to the CPU instead.
/// When `progress` is non-null, reports the settled position and the failed
/// attempts to it. Returns score.valid.
bool score_position(OmegaBackend& backend, const DpMatrix& m,
                    const GridPosition& position,
                    const RecoveryPolicy& recovery, PositionScore& score,
                    util::ProgressReporter* progress, bool quarantine = true);

}  // namespace omega::core::detail
