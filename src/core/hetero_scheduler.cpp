#include "core/hetero_scheduler.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/resilience.h"
#include "core/workload.h"
#include "util/cancel.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace omega::core {

// ---------------------------------------------------------------------------
// HeteroSplit
// ---------------------------------------------------------------------------

HeteroSplit HeteroSplit::parse(std::string_view text) {
  HeteroSplit split;
  if (text == "auto" || text.empty()) return split;
  split.auto_split = false;

  double values[3] = {0.0, 0.0, 0.0};
  std::size_t field = 0;
  std::size_t start = 0;
  const std::string owned(text);
  for (std::size_t i = 0; i <= owned.size(); ++i) {
    if (i < owned.size() && owned[i] != ':') continue;
    if (field >= 3) {
      throw std::invalid_argument("hetero split: expected cpu:gpu:fpga, got '" +
                                  owned + "'");
    }
    const std::string token = owned.substr(start, i - start);
    try {
      std::size_t consumed = 0;
      values[field] = std::stod(token, &consumed);
      if (consumed != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      throw std::invalid_argument("hetero split: bad weight '" + token +
                                  "' in '" + owned + "'");
    }
    if (values[field] < 0.0) {
      throw std::invalid_argument("hetero split: negative weight in '" +
                                  owned + "'");
    }
    ++field;
    start = i + 1;
  }
  if (field != 3) {
    throw std::invalid_argument("hetero split: expected cpu:gpu:fpga, got '" +
                                owned + "'");
  }
  split.cpu = values[0];
  split.gpu = values[1];
  split.fpga = values[2];
  if (split.cpu + split.gpu + split.fpga <= 0.0) {
    throw std::invalid_argument("hetero split: all weights are zero in '" +
                                owned + "'");
  }
  return split;
}

std::string HeteroSplit::name() const {
  if (auto_split) return "auto";
  auto fmt = [](double value) {
    std::string text = std::to_string(value);
    // Trim trailing zeros (and a bare '.') so "2.000000" reads as "2".
    while (!text.empty() && text.back() == '0') text.pop_back();
    if (!text.empty() && text.back() == '.') text.pop_back();
    return text;
  };
  return fmt(cpu) + ":" + fmt(gpu) + ":" + fmt(fpga);
}

void HeteroConfig::validate() const {
  if (!cpu_modeled_seconds) {
    throw std::invalid_argument("hetero: cpu_modeled_seconds model missing");
  }
  for (const HeteroPartitionSpec& spec : accelerators) {
    if (spec.name.empty()) {
      throw std::invalid_argument("hetero: accelerator partition needs a name");
    }
    if (!spec.modeled_seconds) {
      throw std::invalid_argument("hetero: partition '" + spec.name +
                                  "' has no cost model");
    }
    if (!spec.backend_factory) {
      throw std::invalid_argument("hetero: partition '" + spec.name +
                                  "' has no backend factory");
    }
  }
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

HeteroPlan plan_hetero_split(const std::vector<GridPosition>& grid,
                             std::size_t begin, std::size_t end,
                             const HeteroConfig& config) {
  end = std::min(end, grid.size());
  begin = std::min(begin, end);
  const std::size_t parts = 1 + config.accelerators.size();

  HeteroPlan plan;
  plan.segments.resize(parts);
  plan.segments[0].backend = "cpu";
  for (std::size_t p = 0; p + 1 < parts; ++p) {
    plan.segments[p + 1].backend = config.accelerators[p].name;
  }
  for (HeteroSegmentPlan& segment : plan.segments) {
    segment.begin = begin;
    segment.end = begin;
  }
  if (begin >= end) return plan;

  std::uint64_t total_cost = 0;
  std::uint64_t total_valid = 0;
  for (std::size_t g = begin; g < end; ++g) {
    total_cost += estimate_position_cost(grid[g]);
    if (grid[g].valid) ++total_valid;
  }
  // Degenerate-grid guard: all-invalid or all-zero-cost ranges cannot be
  // split proportionally to cost, so budget one unit per valid position.
  plan.equal_fallback = total_cost == 0;
  const auto budget_total = static_cast<double>(
      plan.equal_fallback ? total_valid : total_cost);

  // Partition weights. Auto: the per-partition modeled time for this exact
  // range — throughput is work/time and the work numerator is common, so
  // weight ∝ 1 / modeled seconds. Fixed: the user's cpu:gpu:fpga triple,
  // mapped to [cpu, accelerators[0], accelerators[1]].
  std::vector<double> weights(parts, 0.0);
  if (config.split.auto_split) {
    std::vector<double> modeled(parts, 0.0);
    for (std::size_t g = begin; g < end; ++g) {
      if (!grid[g].valid) continue;
      modeled[0] += config.cpu_modeled_seconds(grid[g]);
      for (std::size_t p = 0; p + 1 < parts; ++p) {
        modeled[p + 1] += config.accelerators[p].modeled_seconds(grid[g]);
      }
    }
    for (std::size_t p = 0; p < parts; ++p) {
      weights[p] = modeled[p] > 0.0 ? 1.0 / modeled[p] : 0.0;
    }
  } else {
    weights[0] = config.split.cpu;
    if (parts > 1) weights[1] = config.split.gpu;
    if (parts > 2) weights[2] = config.split.fpga;
  }
  double weight_sum = 0.0;
  for (const double w : weights) weight_sum += w;
  if (weight_sum <= 0.0) {
    // No model produced a finite time (degenerate grid): split equally.
    std::fill(weights.begin(), weights.end(), 1.0);
    weight_sum = static_cast<double>(parts);
  }
  for (double& w : weights) w /= weight_sum;

  // Contiguous segments in partition order, cut where the cumulative budget
  // crosses each partition's prefix share. Zero-weight partitions close
  // immediately as empty segments.
  std::size_t seg = 0;
  double prefix = weights[0];
  double cum = 0.0;
  plan.segments[0].begin = begin;
  for (std::size_t g = begin; g < end; ++g) {
    while (seg + 1 < parts && cum >= prefix * budget_total) {
      plan.segments[seg].end = g;
      ++seg;
      prefix += weights[seg];
      plan.segments[seg].begin = g;
    }
    cum += static_cast<double>(
        plan.equal_fallback ? (grid[g].valid ? 1 : 0)
                            : estimate_position_cost(grid[g]));
  }
  plan.segments[seg].end = end;
  for (std::size_t p = seg + 1; p < parts; ++p) {
    plan.segments[p].begin = end;
    plan.segments[p].end = end;
  }

  for (std::size_t p = 0; p < parts; ++p) {
    HeteroSegmentPlan& segment = plan.segments[p];
    segment.weight = weights[p];
    const HeteroCostModel& model =
        p == 0 ? config.cpu_modeled_seconds
               : config.accelerators[p - 1].modeled_seconds;
    for (std::size_t g = segment.begin; g < segment.end; ++g) {
      if (!grid[g].valid) continue;
      ++segment.planned_positions;
      segment.modeled_seconds += model(grid[g]);
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// HeteroExecutor
// ---------------------------------------------------------------------------

namespace {

std::optional<detail::ScanSpan> pop_span(std::mutex& mutex,
                                         std::vector<detail::ScanSpan>& spans) {
  const std::lock_guard<std::mutex> lock(mutex);
  if (spans.empty()) return std::nullopt;
  detail::ScanSpan span = spans.back();
  spans.pop_back();
  return span;
}

/// Folds one HeteroStats accumulation into another: counters add, partitions
/// merge by backend name (weight keeps the latest plan's share), so a
/// resumed profile's stats accumulate across runs. No-op when `from` is
/// disabled.
void merge_hetero_stats(HeteroStats& into, const HeteroStats& from) {
  if (!from.enabled) return;
  into.enabled = true;
  if (!from.split.empty()) into.split = from.split;
  into.plans += from.plans;
  into.redispatched_spans += from.redispatched_spans;
  into.redispatched_positions += from.redispatched_positions;
  into.faulted_spans += from.faulted_spans;
  for (const HeteroPartitionStats& part : from.partitions) {
    HeteroPartitionStats* dst = nullptr;
    for (HeteroPartitionStats& candidate : into.partitions) {
      if (candidate.backend == part.backend) {
        dst = &candidate;
        break;
      }
    }
    if (dst == nullptr) {
      HeteroPartitionStats fresh;
      fresh.backend = part.backend;
      into.partitions.push_back(std::move(fresh));
      dst = &into.partitions.back();
    }
    dst->weight = part.weight;  // latest plan's share
    dst->planned_positions += part.planned_positions;
    dst->actual_positions += part.actual_positions;
    dst->spans += part.spans;
    dst->modeled_seconds += part.modeled_seconds;
    dst->measured_seconds += part.measured_seconds;
    // Latest estimate wins (HeteroPartitionStats contract): a run that made
    // observations supersedes whatever a resumed checkpoint carried, while a
    // run that never settled anything keeps the resumed estimate.
    if (part.rate_observations > 0) {
      dst->measured_rate_per_s = part.measured_rate_per_s;
    }
    dst->rate_observations += part.rate_observations;
  }
}

}  // namespace

HeteroExecutor::HeteroExecutor(const HeteroConfig& config,
                               const RecoveryPolicy& recovery,
                               CpuKernelKind kernel, bool reuse,
                               std::size_t threads)
    : config_(config), recovery_(recovery), reuse_(reuse) {
  config_.validate();
  const std::size_t n_accel = config_.accelerators.size();
  // Each accelerator partition consumes one worker slot; the CPU partition
  // gets whatever the thread budget leaves, but always at least one worker —
  // it is the re-dispatch target of last resort.
  cpu_workers_ = threads > n_accel ? threads - n_accel : 1;
  const std::size_t total = cpu_workers_ + n_accel;
  backends_.reserve(total);
  for (std::size_t w = 0; w < cpu_workers_; ++w) {
    backends_.push_back(std::make_unique<CpuOmegaBackend>(kernel));
  }
  for (const HeteroPartitionSpec& spec : config_.accelerators) {
    auto backend = spec.backend_factory();
    if (recovery_.fallback_to_cpu) {
      backend = std::make_unique<FallbackBackend>(std::move(backend), kernel);
    }
    backends_.push_back(std::move(backend));
  }
  states_.resize(total);
  rates_.resize(1 + n_accel);
  stats_.enabled = true;
  stats_.split = config_.split.name();
  stats_.partitions.resize(1 + n_accel);
  stats_.partitions[0].backend = "cpu";
  for (std::size_t p = 0; p < n_accel; ++p) {
    stats_.partitions[p + 1].backend = config_.accelerators[p].name;
  }
}

void HeteroExecutor::invalidate_matrices() noexcept {
  for (detail::SpanWorkerState& state : states_) state.live = false;
}

void HeteroExecutor::run_cpu_worker(
    std::size_t worker, const std::vector<GridPosition>& grid,
    const std::vector<detail::ScanSpan>& spans, par::StealScheduler& scheduler,
    const ld::LdEngine& engine, std::vector<PositionScore>& scores,
    SchedWorkerStats& wstats, RedispatchQueue& redispatch,
    util::ProgressReporter* progress, const detail::CancelState* cancel) {
  auto run_span = [&](const detail::ScanSpan& span) {
    detail::scan_span(grid, span, engine, reuse_, recovery_,
                      *backends_[worker], states_[worker], wstats, scores,
                      progress, cancel);
  };
  try {
    while (const auto claim = scheduler.claim(worker)) {
      if (cancel != nullptr && cancel->should_stop()) return;
      ++wstats.spans;
      if (claim->stolen) ++wstats.steals;
      run_span(spans[claim->item]);
    }
    // Own segment is dry: absorb whatever the accelerators have re-dispatched
    // so far. Remainders pushed after this worker returns are mopped up by
    // the second wave in run().
    while (const auto span = pop_span(redispatch.mutex, redispatch.spans)) {
      if (cancel != nullptr && cancel->should_stop()) return;
      ++wstats.spans;
      run_span(*span);
    }
  } catch (const util::CancelledError&) {
    // A backend observed the cancel mid-launch: the position in flight stays
    // unscored and this worker stops claiming (drain semantics).
  }
}

void HeteroExecutor::run_accelerator(
    std::size_t partition, const std::vector<GridPosition>& grid,
    const std::vector<detail::ScanSpan>& spans, const ld::LdEngine& engine,
    std::vector<PositionScore>& scores, SchedWorkerStats& wstats,
    RedispatchQueue& redispatch, util::ProgressReporter* progress,
    const detail::CancelState* cancel) {
  const std::size_t worker = cpu_workers_ + partition;
  OmegaBackend& backend = *backends_[worker];
  detail::SpanWorkerState& state = states_[worker];

  // Push the unsettled remainder [g, end) of a span back to the CPU
  // partition. Settled positions are skipped on re-scan, so the handoff is
  // idempotent; counters are folded under the queue lock.
  auto push_remainder = [&](std::size_t g, std::size_t end) {
    detail::ScanSpan remainder;
    remainder.begin = g;
    remainder.end = end;
    std::uint64_t positions = 0;
    for (std::size_t i = g; i < end; ++i) {
      if (grid[i].valid && !scores[i].valid && !scores[i].quarantined) {
        ++positions;
        remainder.cost += estimate_position_cost(grid[i]);
      }
    }
    const std::lock_guard<std::mutex> lock(redispatch.mutex);
    redispatch.spans.push_back(remainder);
    ++stats_.redispatched_spans;
    stats_.redispatched_positions += positions;
    ++stats_.faulted_spans;
  };

  try {
    for (const detail::ScanSpan& span : spans) {
      if (cancel != nullptr && cancel->should_stop()) return;
      ++wstats.spans;
      for (std::size_t g = span.begin; g < span.end; ++g) {
        if (cancel != nullptr && cancel->should_stop()) return;
        const GridPosition& position = grid[g];
        PositionScore& score = scores[g];
        if (!position.valid || score.valid || score.quarantined) continue;
        detail::advance_matrix(state.matrix, state.live, reuse_, position,
                               engine);
        // Recovery gave up on this partition — but the CPU is a bit-identical
        // fallback, so re-dispatch the remainder instead of quarantining.
        if (!detail::score_position(backend, state.matrix, position,
                                    recovery_, score, progress,
                                    /*quarantine=*/false)) {
          push_remainder(g, span.end);
          break;
        }
        ++wstats.positions;
      }
    }
  } catch (const util::CancelledError&) {
    // Mid-launch cancel: stop this partition; CPU workers drain their own.
  }
}

void HeteroExecutor::run(const std::vector<GridPosition>& grid,
                         std::size_t begin, std::size_t end,
                         par::ThreadPool& pool, const ld::LdEngine& engine,
                         std::vector<PositionScore>& scores, SchedStats& sched,
                         util::ProgressReporter* progress,
                         const detail::CancelState* cancel) {
  const util::trace::Span run_span("hetero.run");
  const std::size_t n_accel = config_.accelerators.size();
  const std::size_t total = total_workers();
  if (sched.workers_detail.size() < total) sched.workers_detail.resize(total);

  const HeteroPlan plan = plan_hetero_split(grid, begin, end, config_);
  ++stats_.plans;
  static util::telemetry::Counter& plans_total =
      util::telemetry::counter("hetero.plans_total");
  plans_total.add(1);
  for (std::size_t p = 0; p < plan.segments.size(); ++p) {
    HeteroPartitionStats& part = stats_.partitions[p];
    part.weight = plan.segments[p].weight;
    part.planned_positions += plan.segments[p].planned_positions;
    part.modeled_seconds += plan.segments[p].modeled_seconds;
  }

  // CPU segment: work-stealing spans across the CPU workers, seeded like
  // scan_spans_parallel's.
  const HeteroSegmentPlan& cpu_segment = plan.segments[0];
  const std::vector<detail::ScanSpan> cpu_spans = detail::build_scan_spans(
      grid, cpu_segment.begin, cpu_segment.end, cpu_workers_);
  stats_.partitions[0].spans += cpu_spans.size();
  par::StealScheduler scheduler =
      detail::seed_steal_scheduler(cpu_spans, cpu_workers_);

  // Accelerator segments: one ordered launch queue each, split into a few
  // spans so a faulted span re-dispatches only its own remainder.
  std::vector<std::vector<detail::ScanSpan>> accel_spans(n_accel);
  for (std::size_t p = 0; p < n_accel; ++p) {
    const HeteroSegmentPlan& segment = plan.segments[p + 1];
    accel_spans[p] =
        detail::build_scan_spans(grid, segment.begin, segment.end, 1);
    stats_.partitions[p + 1].spans += accel_spans[p].size();
  }

  RedispatchQueue redispatch;
  std::vector<double> busy(total, 0.0);
  std::vector<std::uint64_t> settled_before(total, 0);
  for (std::size_t w = 0; w < total; ++w) {
    settled_before[w] = sched.workers_detail[w].positions;
  }

  std::vector<std::function<void()>> tasks;
  tasks.reserve(total);
  for (std::size_t w = 0; w < cpu_workers_; ++w) {
    tasks.emplace_back([&, w] {
      const util::trace::Span worker_span("hetero.cpu_worker");
      const util::Timer timer;
      run_cpu_worker(w, grid, cpu_spans, scheduler, engine, scores,
                     sched.workers_detail[w], redispatch, progress, cancel);
      busy[w] += timer.seconds();
      sched.workers_detail[w].busy_seconds += timer.seconds();
    });
  }
  for (std::size_t p = 0; p < n_accel; ++p) {
    tasks.emplace_back([&, p] {
      const util::trace::Span worker_span("hetero.accelerator");
      const util::Timer timer;
      run_accelerator(p, grid, accel_spans[p], engine, scores,
                      sched.workers_detail[cpu_workers_ + p], redispatch,
                      progress, cancel);
      busy[cpu_workers_ + p] += timer.seconds();
      sched.workers_detail[cpu_workers_ + p].busy_seconds += timer.seconds();
    });
  }
  pool.run_blocking(std::move(tasks));

  // Mop-up wave: remainders pushed after the CPU workers' opportunistic
  // drain returned. The accelerators are done, so one pass settles the
  // queue; a cancelled scan leaves it unscored (drain semantics).
  if (!redispatch.spans.empty() &&
      (cancel == nullptr || !cancel->should_stop())) {
    std::vector<std::function<void()>> mopup;
    mopup.reserve(cpu_workers_);
    for (std::size_t w = 0; w < cpu_workers_; ++w) {
      mopup.emplace_back([&, w] {
        const util::Timer timer;
        SchedWorkerStats& wstats = sched.workers_detail[w];
        try {
          while (const auto span =
                     pop_span(redispatch.mutex, redispatch.spans)) {
            if (cancel != nullptr && cancel->should_stop()) break;
            ++wstats.spans;
            detail::scan_span(grid, *span, engine, reuse_, recovery_,
                              *backends_[w], states_[w], wstats, scores,
                              progress, cancel);
          }
        } catch (const util::CancelledError&) {
        }
        busy[w] += timer.seconds();
        wstats.busy_seconds += timer.seconds();
      });
    }
    pool.run_blocking(std::move(mopup));
  }

  // Partition accounting for this run: the CPU partition's measured time is
  // its slowest worker (its wall-clock critical path); each accelerator is
  // its single task.
  double cpu_busy = 0.0;
  std::uint64_t cpu_settled = 0;
  for (std::size_t w = 0; w < cpu_workers_; ++w) {
    cpu_busy = std::max(cpu_busy, busy[w]);
    cpu_settled += sched.workers_detail[w].positions - settled_before[w];
  }
  stats_.partitions[0].measured_seconds += cpu_busy;
  stats_.partitions[0].actual_positions += cpu_settled;
  for (std::size_t p = 0; p < n_accel; ++p) {
    const std::size_t w = cpu_workers_ + p;
    stats_.partitions[p + 1].measured_seconds += busy[w];
    stats_.partitions[p + 1].actual_positions +=
        sched.workers_detail[w].positions - settled_before[w];
  }

  // Measured-rate EWMAs, one observation per partition per plan run: the
  // positions this run settled over the partition's busy wall time. The
  // estimators persist across stream chunks, so the stamped values are the
  // whole-scan EWMAs; the gauges mirror them for live exposition (telemetry
  // only — never a bench diff gate).
  for (std::size_t p = 0; p < 1 + n_accel; ++p) {
    const std::uint64_t settled =
        p == 0 ? cpu_settled
               : sched.workers_detail[cpu_workers_ + p - 1].positions -
                     settled_before[cpu_workers_ + p - 1];
    const double seconds = p == 0 ? cpu_busy : busy[cpu_workers_ + p - 1];
    rates_[p].observe(settled, seconds);
    HeteroPartitionStats& part = stats_.partitions[p];
    part.measured_rate_per_s = rates_[p].rate_per_s();
    part.rate_observations = rates_[p].observations();
    if (rates_[p].observations() > 0) {
      util::telemetry::gauge("hetero." + part.backend + ".rate_per_s")
          .set(rates_[p].rate_per_s());
    }
  }

  // Totals recomputed from per-worker detail (scan_spans_parallel contract)
  // so repeated per-chunk calls stay consistent.
  sched.spans = 0;
  sched.steals = 0;
  for (const SchedWorkerStats& w : sched.workers_detail) {
    sched.spans += w.spans;
    sched.steals += w.steals;
  }
}

void HeteroExecutor::finalize(ScanProfile& profile) const {
  for (std::size_t w = 0; w < backends_.size(); ++w) {
    detail::fold_worker(profile, states_[w].matrix, *backends_[w]);
  }
  profile.omega_backend = "hetero";
  merge_hetero_stats(profile.hetero, stats_);
}

}  // namespace omega::core
