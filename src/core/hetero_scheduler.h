#pragma once
// Heterogeneous co-scheduler (ROADMAP item 3): one scan split across the CPU
// span engine and the simulated accelerator backends at the same time, sized
// by each backend's modeled throughput for the actual per-position workload.
//
// The planner walks the grid's estimated cost vector (core/workload) and
// cuts it into one contiguous, relocation-coherent segment per partition —
// CPU first, then each accelerator in config order — proportionally to the
// partition weights (auto: modeled throughput from the hw timing/cycle
// models; fixed: --hetero-split=cpu:gpu:fpga). Each segment is sub-split
// into spans (core/span_engine), and all partitions execute concurrently on
// one shared ThreadPool: the CPU segment under the work-stealing scheduler,
// each accelerator as a single ordered launch queue.
//
// Straggler / fault re-dispatch: an accelerator span that quarantine-exhausts
// a position, or whose wall time exceeds its modeled deadline, pushes its
// unsettled remainder onto a re-dispatch queue that the CPU workers drain —
// first opportunistically while the batch is still running, then in a
// mop-up wave after it. Settled positions are never rescored (the streaming
// chunk-retry "skip settled" contract), so re-dispatch is idempotent.
//
// Bitwise guarantee: accelerator partitions run their simulator backends
// with functional_cap = 0, which routes every scoring decision through
// core::max_omega_search — the double-precision reference that every CPU
// kernel body is EXPECT_EQ-identical to — while the device cost models,
// fault injection, and accounting still accrue. A hetero scan is therefore
// bitwise-identical to the serial CPU scan for any split, with or without
// re-dispatch.
//
// Not installed API; include from src/core/*.cpp, sweep/, the CLI, tests.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/grid.h"
#include "core/rate_estimator.h"
#include "core/scan_driver.h"
#include "core/scanner.h"
#include "core/span_engine.h"
#include "ld/ld_engine.h"
#include "par/thread_pool.h"

namespace omega::util {
class ProgressReporter;
}

namespace omega::core {

/// Partition weights. Auto sizes partitions by modeled throughput over the
/// actual grid; fixed weights are normalized shares of the estimated cost.
struct HeteroSplit {
  bool auto_split = true;
  double cpu = 1.0;
  double gpu = 1.0;
  double fpga = 1.0;

  /// Parses "auto" or "CPU:GPU:FPGA" weight triples ("2:1:1", "1:0:0", ...).
  /// Throws std::invalid_argument on malformed or negative input, or when
  /// every weight is zero.
  static HeteroSplit parse(std::string_view text);

  /// Canonical display name: "auto" or the normalized "c:g:f" triple.
  [[nodiscard]] std::string name() const;
};

/// Modeled seconds one partition's backend would spend on one grid position.
/// Invalid positions must cost 0.
using HeteroCostModel = std::function<double(const GridPosition&)>;

/// One accelerator partition: a display name, the device cost model that
/// sizes its grid share (and arms the straggler deadline), and a factory for
/// its backend instance. The factory MUST configure the backend for exact
/// scoring (functional_cap = 0 on the simulators) or hetero results diverge
/// from the CPU scan.
struct HeteroPartitionSpec {
  std::string name;
  HeteroCostModel modeled_seconds;
  std::function<std::unique_ptr<OmegaBackend>()> backend_factory;
};

struct HeteroConfig {
  HeteroSplit split;
  /// Modeled CPU seconds per position (weights the CPU partition under
  /// auto_split; a simple evaluations/rate model is fine).
  HeteroCostModel cpu_modeled_seconds;
  /// Accelerator partitions in grid order after the CPU segment. May be
  /// empty, in which case hetero degenerates to the plain span engine.
  std::vector<HeteroPartitionSpec> accelerators;
  /// Straggler deadline per accelerator span: wall seconds beyond
  /// multiplier * modeled-span-seconds + min re-dispatch the unsettled
  /// remainder to the CPU. The generous defaults only fire on real stalls,
  /// not model noise.
  double straggler_multiplier = 8.0;
  double straggler_min_seconds = 0.25;

  /// Throws std::invalid_argument on missing models/factories or a
  /// nonsensical straggler policy.
  void validate() const;
};

/// One partition's contiguous slice of the planned range.
struct HeteroSegmentPlan {
  std::string backend;  // "cpu" or HeteroPartitionSpec::name
  std::size_t begin = 0;  // grid index, inclusive
  std::size_t end = 0;    // grid index, exclusive
  double weight = 0.0;    // normalized planned share
  std::uint64_t planned_positions = 0;  // valid positions in [begin, end)
  double modeled_seconds = 0.0;  // partition model summed over the segment
};

struct HeteroPlan {
  /// CPU segment first, then one per accelerator, tiling [begin, end) in
  /// grid order. A zero-weight partition gets an empty segment.
  std::vector<HeteroSegmentPlan> segments;
  /// Every valid position estimated to zero cost: the planner fell back to
  /// deterministic equal-position-count segments.
  bool equal_fallback = false;
};

/// Deterministically partitions grid range [begin, end) for `config`: auto
/// weights from modeled throughput (estimated cost over modeled seconds per
/// partition), fixed weights normalized as given, then contiguous segments
/// by cumulative estimated cost (valid-position count when the grid's total
/// cost is zero — the degenerate-grid guard).
[[nodiscard]] HeteroPlan plan_hetero_split(
    const std::vector<GridPosition>& grid, std::size_t begin, std::size_t end,
    const HeteroConfig& config);

/// Drives one scan's heterogeneous execution. Owns the per-worker backends,
/// DP matrices, and profiles so the streaming driver can call run() once per
/// chunk with seam carryover intact; scan() calls it once for the whole
/// grid. Worker layout: cpu_workers() CPU span workers, then one worker per
/// accelerator partition.
class HeteroExecutor {
 public:
  /// `threads` is the resolved scan thread count; the CPU partition gets
  /// max(1, threads - accelerators) workers so the total task count stays at
  /// the user's budget (never below accelerators + 1).
  HeteroExecutor(const HeteroConfig& config, const RecoveryPolicy& recovery,
                 CpuKernelKind kernel, bool reuse, std::size_t threads);

  [[nodiscard]] std::size_t cpu_workers() const noexcept {
    return cpu_workers_;
  }
  /// cpu_workers() + one per accelerator: size the shared pool to
  /// total_workers() - 1 and call run() on the remaining thread.
  [[nodiscard]] std::size_t total_workers() const noexcept {
    return cpu_workers_ + config_.accelerators.size();
  }
  /// Canonical backend name for the checkpoint config hash: hetero resumes
  /// must interoperate with plain CPU runs, so this is "cpu" (the split,
  /// like the thread count, must not change the hash).
  [[nodiscard]] static const char* canonical_backend_name() noexcept {
    return "cpu";
  }

  /// Plans and executes grid range [begin, end). `pool` must hold at least
  /// total_workers() - 1 threads; `scores` spans the whole grid. Callable
  /// repeatedly over disjoint ranges (the streaming driver's per-chunk
  /// calls); worker matrices persist between calls.
  void run(const std::vector<GridPosition>& grid, std::size_t begin,
           std::size_t end, par::ThreadPool& pool, const ld::LdEngine& engine,
           std::vector<PositionScore>& scores, SchedStats& sched,
           util::ProgressReporter* progress, const detail::CancelState* cancel);

  /// Marks every worker matrix dead (streaming chunk-retry contract after an
  /// exception escaped run()).
  void invalidate_matrices() noexcept;

  /// End-of-scan bookkeeping: finalizes a *copy* of every worker profile,
  /// merges them into `profile`, and folds the accumulated HeteroStats in
  /// (profile.omega_backend becomes "hetero"). Repeat-safe on successive
  /// snapshots of the same base profile — the streaming driver calls it per
  /// checkpoint on a totals copy and once at stream end on the real one.
  void finalize(ScanProfile& profile) const;

  /// Accumulated co-scheduler accounting so far (finalize() stamps this
  /// into the profile).
  [[nodiscard]] const HeteroStats& stats() const noexcept { return stats_; }

 private:
  struct RedispatchQueue {
    std::mutex mutex;
    std::vector<detail::ScanSpan> spans;
  };

  void run_cpu_worker(std::size_t worker, const std::vector<GridPosition>& grid,
                      const std::vector<detail::ScanSpan>& spans,
                      par::StealScheduler& scheduler, const ld::LdEngine& engine,
                      std::vector<PositionScore>& scores,
                      SchedWorkerStats& wstats, RedispatchQueue& redispatch,
                      util::ProgressReporter* progress,
                      const detail::CancelState* cancel);
  void run_accelerator(std::size_t partition,
                       const std::vector<GridPosition>& grid,
                       const std::vector<detail::ScanSpan>& spans,
                       const ld::LdEngine& engine,
                       std::vector<PositionScore>& scores,
                       SchedWorkerStats& wstats, RedispatchQueue& redispatch,
                       util::ProgressReporter* progress,
                       const detail::CancelState* cancel);

  HeteroConfig config_;
  RecoveryPolicy recovery_;
  bool reuse_ = true;
  std::size_t cpu_workers_ = 1;
  std::vector<std::unique_ptr<OmegaBackend>> backends_;  // total_workers()
  std::vector<detail::SpanWorkerState> states_;
  std::vector<ScanProfile> profiles_;
  HeteroStats stats_;
  /// One measured-throughput EWMA per partition (CPU first), observed once
  /// per run() — the empirical counterpart of the planner's modeled rates,
  /// stamped into HeteroPartitionStats::measured_rate_per_s (schema v11).
  std::vector<RateEstimator> rates_;
};

/// Folds one HeteroStats accumulation into another: counters add, partitions
/// merge by backend name (weight keeps the latest plan's share). Used by
/// HeteroExecutor::finalize and by checkpoint resume to accumulate stats
/// across runs. No-op when `from` is disabled.
void merge_hetero_stats(HeteroStats& into, const HeteroStats& from);

}  // namespace omega::core
