#pragma once
// Work-stealing span engine: the multithreaded mode of the scan executor
// (core/scan_driver.h) that runs both scan() and stream_scan(), modeled on
// selscan's multithreaded EHH scan. The grid range is partitioned into
// many relocation-coherent spans (contiguous grid runs, so each keeps the
// DpMatrix M-reuse chain intact), budgeted by *valid* positions via the
// core/workload per-position ω estimate. Workers — each owning a DP matrix
// and a backend instance — claim spans from a par::StealScheduler: their own
// run in grid order first, then steals when it dries up.
//
// Bitwise guarantee: M(i, j) values are independent of the matrix's
// relocation history (DpMatrix::extend computes each row with the same
// fixed-order accumulation whatever the base), so span boundaries and steal
// order cannot change scores or quarantine decisions vs. the serial scan.
//
// Not installed API; include only from src/core/*.cpp and tests.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/rate_estimator.h"
#include "core/scan_driver.h"
#include "core/scanner.h"
#include "ld/ld_engine.h"
#include "par/thread_pool.h"

namespace omega::util {
class ProgressReporter;
}

namespace omega::core::detail {

/// One contiguous run of grid indices; the unit of work-stealing.
struct ScanSpan {
  std::size_t begin = 0;  // grid index, inclusive
  std::size_t end = 0;    // grid index, exclusive
  std::uint64_t cost = 0;  // summed estimate_position_cost over [begin, end)
  std::uint64_t valid_positions = 0;
};

/// Partitions grid range [begin, end) into up to workers * spans_per_worker
/// contiguous spans of roughly equal estimated cost. Only *valid* positions
/// carry cost (estimate_position_cost), so a grid whose invalid positions
/// cluster at one end still splits the real work evenly — the bug the static
/// grid.size()/workers split had. Invalid positions are absorbed into the
/// enclosing span at zero cost; the spans exactly tile [begin, end). Returns
/// an empty vector when the range holds no valid position.
[[nodiscard]] std::vector<ScanSpan> build_scan_spans(
    const std::vector<GridPosition>& grid, std::size_t begin, std::size_t end,
    std::size_t workers, std::size_t spans_per_worker = 4);

/// Per-worker scan state that outlives one scan_spans_parallel call: the
/// scan executor keeps these across stream chunks so each worker's DP matrix
/// carries over chunk seams (its serial mode walks one the same way). The rate
/// estimator EWMAs the worker's measured positions/sec across its claimed
/// spans (one observation per claim); it feeds the
/// "sched.worker<w>.rate_per_s" telemetry gauge only — deliberately not
/// SchedWorkerStats — so bench diff gates never see this noisy signal.
struct SpanWorkerState {
  DpMatrix matrix;
  bool live = false;
  RateEstimator rate;
};

/// Runs `spans` over `grid` with work stealing. backends / states /
/// worker_profiles must all have the same size W >= 1; `pool` should hold
/// W - 1 threads (the caller participates via run_blocking). Spans are
/// seeded contiguously across workers by cost; each claimed span is scanned
/// in grid order with the worker's own matrix and backend, skipping invalid
/// positions and positions already scored or quarantined (the streaming
/// chunk-retry contract). Scheduler accounting accumulates into `sched`
/// (workers_detail grows to W; spans/steals recomputed from it), so repeated
/// calls — one per stream chunk — aggregate correctly.
///
/// Worker profiles are NOT finalized here: fold them in with
/// merge_span_workers after the last call.
/// Exceptions escaping a worker rethrow out of here (earliest-submitted
/// first, par::ThreadPool::run_blocking semantics) after the batch drains;
/// the caller must then treat every worker matrix as dead (live = false).
///
/// `cancel` (optional) is polled before every span claim and every position:
/// once it fires, workers finish the position in flight, stop claiming, and
/// return — leaving unvisited positions untouched (neither valid nor
/// quarantined), which is exactly the "skip settled, rescore the rest" state
/// a later resume or chunk retry expects.
void scan_spans_parallel(const std::vector<GridPosition>& grid,
                         const std::vector<ScanSpan>& spans,
                         par::ThreadPool& pool, const ld::LdEngine& engine,
                         bool reuse, const RecoveryPolicy& recovery,
                         const std::vector<std::unique_ptr<OmegaBackend>>& backends,
                         std::vector<SpanWorkerState>& states,
                         std::vector<PositionScore>& scores,
                         std::vector<ScanProfile>& worker_profiles,
                         SchedStats& sched, util::ProgressReporter* progress,
                         const CancelState* cancel = nullptr);

/// Folds every worker's accounting into `into`: a copy of each worker
/// profile gets its ld/omega second buckets from the accumulated stage
/// times, its matrix's relocation counters and its backend's contribution,
/// then merges in via merge_worker_profile. Only copies are finalized, so
/// repeating this on copies of a running profile is safe.
void merge_span_workers(
    ScanProfile& into, const std::vector<ScanProfile>& profiles,
    const std::vector<SpanWorkerState>& states,
    const std::vector<std::unique_ptr<OmegaBackend>>& backends);

}  // namespace omega::core::detail
