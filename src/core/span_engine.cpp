#include "core/span_engine.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>

#include "core/scan_driver.h"
#include "core/workload.h"
#include "util/progress.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace omega::core::detail {

std::vector<ScanSpan> build_scan_spans(const std::vector<GridPosition>& grid,
                                       std::size_t begin, std::size_t end,
                                       std::size_t workers,
                                       std::size_t spans_per_worker) {
  end = std::min(end, grid.size());
  if (begin >= end) return {};
  if (workers == 0) workers = 1;
  if (spans_per_worker == 0) spans_per_worker = 1;

  std::uint64_t total_cost = 0;
  std::size_t total_valid = 0;
  for (std::size_t g = begin; g < end; ++g) {
    total_cost += estimate_position_cost(grid[g]);
    if (grid[g].valid) ++total_valid;
  }
  if (total_valid == 0) return {};

  // More spans than workers so the steal scheduler has slack to rebalance;
  // never more spans than valid positions (a span needs real work).
  const std::uint64_t target_spans = static_cast<std::uint64_t>(
      std::min<std::size_t>(workers * spans_per_worker, total_valid));

  // Degenerate grid: every valid position estimates to zero cost (e.g. all
  // windows collapse to a single SNP). The proportional boundary below would
  // divide work by total cost, so fall back to budgeting one unit per valid
  // position — deterministic equal-count spans.
  const bool equal_fallback = total_cost == 0;
  const std::uint64_t budget_total =
      equal_fallback ? static_cast<std::uint64_t>(total_valid) : total_cost;

  static util::telemetry::Histogram& span_positions_hist =
      util::telemetry::histogram("sched.span_positions", 1.0);

  std::vector<ScanSpan> spans;
  spans.reserve(target_spans);
  ScanSpan current;
  current.begin = begin;
  std::uint64_t cum = 0;
  for (std::size_t g = begin; g < end; ++g) {
    const GridPosition& position = grid[g];
    if (!position.valid) continue;  // absorbed at zero cost
    const std::uint64_t cost =
        equal_fallback ? 1 : estimate_position_cost(position);
    cum += cost;
    current.cost += cost;
    ++current.valid_positions;
    current.end = g + 1;
    // Proportional boundary: close the span once the running cost crosses
    // the next 1/target_spans share of the total. Invalid tails attach to
    // whatever span encloses them.
    const std::uint64_t closed = static_cast<std::uint64_t>(spans.size());
    if (closed + 1 < target_spans &&
        cum * target_spans >= (closed + 1) * budget_total) {
      spans.push_back(current);
      span_positions_hist.record(
          static_cast<double>(current.valid_positions));
      current = ScanSpan{};
      current.begin = g + 1;
    }
  }
  // Final span absorbs any trailing invalid positions so spans tile the
  // whole range.
  current.end = end;
  spans.push_back(current);
  span_positions_hist.record(static_cast<double>(current.valid_positions));
  return spans;
}

par::StealScheduler seed_steal_scheduler(const std::vector<ScanSpan>& spans,
                                         std::size_t workers) {
  std::uint64_t total_cost = 0;
  for (const ScanSpan& span : spans) total_cost += span.cost;
  const bool equal_fallback = total_cost == 0;
  const std::uint64_t budget_total =
      equal_fallback ? static_cast<std::uint64_t>(spans.size()) : total_cost;
  par::StealScheduler scheduler(workers);
  std::vector<std::size_t> run;
  std::size_t worker = 0;
  std::uint64_t cum = 0;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    run.push_back(s);
    cum += equal_fallback ? 1 : spans[s].cost;
    if (worker + 1 < workers &&
        cum * workers >= (static_cast<std::uint64_t>(worker) + 1) * budget_total) {
      scheduler.assign(worker, std::move(run));
      run = {};
      ++worker;
    }
  }
  scheduler.assign(std::min(worker, workers - 1), std::move(run));
  return scheduler;
}

void scan_span(const std::vector<GridPosition>& grid, const ScanSpan& span,
               const ld::LdEngine& engine, bool reuse,
               const RecoveryPolicy& recovery, OmegaBackend& backend,
               SpanWorkerState& state, SchedWorkerStats& wstats,
               std::vector<PositionScore>& scores,
               util::ProgressReporter* progress, const CancelState* cancel) {
  for (std::size_t g = span.begin; g < span.end; ++g) {
    if (cancel != nullptr && cancel->should_stop()) return;
    const GridPosition& position = grid[g];
    PositionScore& score = scores[g];
    if (!position.valid || score.valid || score.quarantined) continue;
    advance_matrix(state.matrix, state.live, reuse, position, engine);
    if (score_position(backend, state.matrix, position, recovery, score,
                       progress)) {
      ++wstats.positions;
    }
  }
}

void scan_spans_parallel(const std::vector<GridPosition>& grid,
                         const std::vector<ScanSpan>& spans,
                         par::ThreadPool& pool, const ld::LdEngine& engine,
                         bool reuse, const RecoveryPolicy& recovery,
                         const std::vector<std::unique_ptr<OmegaBackend>>& backends,
                         std::vector<SpanWorkerState>& states,
                         std::vector<PositionScore>& scores,
                         SchedStats& sched,
                         util::ProgressReporter* progress,
                         const CancelState* cancel) {
  const std::size_t workers = backends.size();
  if (sched.workers_detail.size() < workers) {
    sched.workers_detail.resize(workers);
  }
  if (spans.empty()) return;

  static util::telemetry::Counter& spans_total =
      util::telemetry::counter("sched.spans_total");
  static util::telemetry::Counter& steals_total =
      util::telemetry::counter("sched.steals_total");
  static util::telemetry::Histogram& busy_hist =
      util::telemetry::histogram("sched.worker_busy_seconds");
  spans_total.add(spans.size());

  par::StealScheduler scheduler = seed_steal_scheduler(spans, workers);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    tasks.emplace_back([&, w] {
      const util::trace::Span worker_span("scan.worker");
      OmegaBackend& backend = *backends[w];
      SpanWorkerState& state = states[w];
      SchedWorkerStats& wstats = sched.workers_detail[w];
      try {
        while (const auto claim = scheduler.claim(w)) {
          if (cancel != nullptr && cancel->should_stop()) break;
          const ScanSpan& span = spans[claim->item];
          const util::Timer busy;
          const std::uint64_t positions_before = wstats.positions;
          ++wstats.spans;
          if (claim->stolen) {
            ++wstats.steals;
            steals_total.add(1);
          }
          scan_span(grid, span, engine, reuse, recovery, backend, state,
                    wstats, scores, progress, cancel);
          const double elapsed = busy.seconds();
          wstats.busy_seconds += elapsed;
          busy_hist.record(elapsed);
          // Measured-rate EWMA, one observation per claimed span. Exported
          // as a gauge only (metrics_diff skips the telemetry subtree): the
          // per-span signal is far too noisy to gate benchmarks on.
          state.rate.observe(wstats.positions - positions_before, elapsed);
          if (state.rate.observations() > 0) {
            util::telemetry::gauge("sched.worker" + std::to_string(w) +
                                   ".rate_per_s")
                .set(state.rate.rate_per_s());
          }
        }
      } catch (const util::CancelledError&) {
        // A simulator backend observed the cancel mid-launch: this worker's
        // position in flight stays unscored (neither valid nor quarantined)
        // and it stops claiming; the others drain through their own polls.
      }
    });
  }
  pool.run_blocking(std::move(tasks));

  // Totals are recomputed from the per-worker detail (not incremented), so
  // the repeated per-chunk calls of the streaming driver stay consistent.
  sched.spans = 0;
  sched.steals = 0;
  for (const SchedWorkerStats& w : sched.workers_detail) {
    sched.spans += w.spans;
    sched.steals += w.steals;
  }
}

}  // namespace omega::core::detail
