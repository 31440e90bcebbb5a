#include "core/scan_driver.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "core/hetero_scheduler.h"
#include "core/resilience.h"
#include "core/span_engine.h"
#include "ld/packed.h"
#include "util/flight_recorder.h"
#include "util/perf_counters.h"
#include "util/probe.h"
#include "util/progress.h"
#include "util/trace.h"

namespace omega::core::detail {

namespace {

/// Populates the scan's CancelState from the options: the caller's token, or
/// an internal one when only a deadline was set (so expiry still has a flag
/// to raise), or disabled entirely. `internal` must outlive the scan.
void init_cancel_state(CancelState& cancel, const ScannerOptions& options,
                       util::CancelToken& internal) {
  if (options.cancel != nullptr) {
    cancel.token = options.cancel;
  } else if (options.deadline_seconds > 0.0) {
    cancel.token = &internal;
  }
  if (cancel.token != nullptr && options.deadline_seconds > 0.0) {
    cancel.deadline =
        util::Deadline(options.deadline_seconds, options.deadline_clock);
  }
}

/// End-of-scan runtime accounting: cancellation flags/reason/latency,
/// deadline outcome, and the skipped-position census that defines `partial`.
/// Records the drain latency into the "runtime.cancel_latency_seconds"
/// telemetry histogram.
void finalize_runtime(ScanProfile& profile, const CancelState& cancel,
                      double deadline_seconds,
                      const std::vector<GridPosition>& grid,
                      const std::vector<PositionScore>& scores) {
  RuntimeStats& runtime = profile.runtime;
  runtime.deadline_seconds = deadline_seconds > 0.0 ? deadline_seconds : 0.0;
  for (std::size_t g = 0; g < grid.size() && g < scores.size(); ++g) {
    if (grid[g].valid && !scores[g].valid && !scores[g].quarantined) {
      ++runtime.positions_skipped;
    }
  }
  runtime.partial = runtime.positions_skipped > 0;
  const bool cancelled =
      cancel.token != nullptr && cancel.token->cancelled();
  if (cancelled) {
    runtime.cancelled = true;
    runtime.cancel_reason = util::cancel_reason_name(cancel.token->reason());
    if (cancel.observed.load(std::memory_order_acquire)) {
      runtime.cancel_latency_seconds =
          cancel.since_start.seconds() -
          cancel.observed_seconds.load(std::memory_order_acquire);
      static util::telemetry::Histogram& latency_hist =
          util::telemetry::histogram("runtime.cancel_latency_seconds");
      latency_hist.record(runtime.cancel_latency_seconds);
    }
  }
  if (deadline_seconds > 0.0) {
    if (cancelled &&
        cancel.token->reason() == util::CancelReason::Deadline) {
      runtime.deadline_outcome = "expired";
    } else if (cancelled) {
      // Cancelled for another reason before the deadline resolved.
      runtime.deadline_outcome = "preempted";
    } else {
      runtime.deadline_outcome = "met";
    }
  } else {
    runtime.deadline_outcome = "none";
  }
}

/// The engine half of ScanProfile::ld (schema v9): what was requested and
/// what ran. derive_profile fills the telemetry-backed half.
void finalize_ld_engine(ScanProfile& profile, const ScannerOptions& options) {
  LdStats& ld = profile.ld;
  ld.requested =
      options.ld_factory ? "custom" : ld_backend_name(options.ld);
  ld.engine = profile.ld_backend;
  // make_ld_engine builds PackedLd with PackedIsa::Auto, so the resolved
  // microkernel body is reproducible from the build/host alone.
  ld.isa = profile.ld_backend == "packed"
               ? ld::packed_isa_name(ld::PackedIsa::Auto)
               : "";
}

/// End-of-scan hardware-counter accounting: fills ScanProfile::perf (schema
/// v11) from the scan telemetry's perf.<stage>.* counters. Call after
/// profile.telemetry has been assigned; the block stays disabled when
/// util::perf was never enabled.
void finalize_perf_stats(ScanProfile& profile) {
  PerfStats& perf = profile.perf;
  perf.enabled = util::perf::enabled();
  perf.source = perf.enabled ? util::perf::source() : "";
  perf.stages.clear();
  if (!perf.enabled) return;
  // Re-group the scan telemetry's flat perf.<stage>.<field> counters into
  // per-stage entries. A std::map keys them stage-name-sorted, matching
  // the documented PerfStats order without a second sort.
  std::map<std::string, PerfStageStats> stages;
  for (const auto& [name, value] : profile.telemetry.counters) {
    const std::string_view view(name);
    if (view.substr(0, 5) != "perf.") continue;
    const std::size_t last_dot = view.rfind('.');
    if (last_dot == std::string_view::npos || last_dot <= 5) continue;
    const std::string stage_name(view.substr(5, last_dot - 5));
    const std::string_view field = view.substr(last_dot + 1);
    PerfStageStats& stats = stages[stage_name];
    stats.stage = stage_name;
    if (field == "scopes") {
      stats.scopes = value;
    } else if (field == "cycles") {
      stats.cycles = value;
    } else if (field == "instructions") {
      stats.instructions = value;
    } else if (field == "cache_misses") {
      stats.cache_misses = value;
    } else if (field == "branch_misses") {
      stats.branch_misses = value;
    } else if (field == "task_clock_ns") {
      stats.task_clock_seconds = static_cast<double>(value) * 1e-9;
    }
  }
  for (auto& [stage_name, stats] : stages) {
    if (stats.scopes == 0) continue;  // stage never entered during this scan
    perf.stages.push_back(std::move(stats));
  }
}

/// Assigns every ScanProfile field the telemetry backs (docs/METRICS.md maps
/// each to its metric) from profile.telemetry: stage and bucket seconds from
/// the stage probes' histogram sums, position and evaluation counts from the
/// score_position counters, the recovery counters from the retry histograms
/// and counters, the stream's IO times from its probes, and the packed LD
/// engine's panel-cache and phase accounting — which therefore accumulate
/// across per-chunk engines and across runs on checkpoint resume.
void derive_profile(ScanProfile& profile) {
  const util::telemetry::RegistrySnapshot& telemetry = profile.telemetry;
  const util::telemetry::HistogramSnapshot none;
  const auto hist = [&](std::string_view name)
      -> const util::telemetry::HistogramSnapshot& {
    const util::telemetry::HistogramSnapshot* h =
        telemetry.find_histogram(name);
    return h != nullptr ? *h : none;
  };
  const auto sum = [&](std::string_view name) { return hist(name).sum; };
  StageTimes& stages = profile.stages;
  stages.ld_reset_seconds = sum("scan.reset_seconds");
  stages.ld_relocate_seconds = sum("scan.relocate_seconds");
  stages.ld_extend_seconds = sum("scan.extend_seconds");
  stages.omega_search_seconds = sum("scan.omega_search_seconds");
  stages.dispatch_seconds =
      sum("gpu.dispatch_seconds") + sum("fpga.dispatch_seconds");
  profile.ld_seconds = stages.ld_total();
  profile.omega_seconds = stages.omega_search_seconds;
  profile.positions_scanned =
      telemetry.counter_value("scan.positions_scanned");
  profile.omega_evaluations =
      telemetry.counter_value("scan.omega_evaluations");

  FaultRecoveryStats& faults = profile.faults;
  faults.errors_caught = hist("scan.retry.attempt_seconds").count;
  faults.invalid_results =
      telemetry.counter_value("scan.retry.invalid_results");
  faults.retries = hist("scan.retry.backoff_seconds").count;
  faults.backoff_virtual_seconds = sum("scan.retry.backoff_seconds");
  faults.quarantined_positions =
      telemetry.counter_value("scan.quarantined_positions");

  LdStats& ld = profile.ld;
  ld.panel_packs = telemetry.counter_value("ld.panel_cache.misses");
  ld.panel_hits = telemetry.counter_value("ld.panel_cache.hits");
  ld.pack_seconds = sum("ld.pack_seconds");
  ld.kernel_seconds = sum("ld.kernel_seconds");

  StreamStats& stream = profile.stream;
  stream.io_seconds = sum("stream.chunk_fetch_seconds");
  stream.io_stall_seconds = sum("stream.io_stall_seconds");
  stream.compute_seconds = sum("stream.chunk_scan_seconds");
  if (stream.chunks > 0) {
    // The overlap gauge is derived as well: publish it and stamp it into
    // this scan's telemetry.
    const double overlap = stream.io_overlap_ratio();
    util::telemetry::gauge("stream.io_overlap_ratio").set(overlap);
    util::telemetry::RegistrySnapshot gauge;
    gauge.gauges.emplace_back("stream.io_overlap_ratio", overlap);
    profile.telemetry = gauge.merged_with(profile.telemetry);
  }
}

}  // namespace

ScanExecutor::ScanExecutor(const ScannerOptions& options,
                           const BackendFactory& backend_factory)
    : options_(options) {
  options.config.validate();
  options.recovery.validate();
  kernel_ = resolve_cpu_kernel(options.cpu_kernel);
  threads_ = resolve_scan_threads(options.threads);
  init_cancel_state(cancel_, options, internal_token_);
  if (options.hetero != nullptr) {
    // The co-scheduler owns its workers; `threads` bounds their total.
    hetero_ = std::make_unique<HeteroExecutor>(
        *options.hetero, options.recovery, kernel_, options.reuse, threads_);
    // total_workers() >= 2 whenever an accelerator is configured; the max
    // guard keeps the degenerate no-accelerator config off ThreadPool's
    // 0-means-auto convention.
    pool_.emplace(std::max<std::size_t>(1, hetero_->total_workers() - 1));
    return;
  }
  for (std::size_t w = 0; w < threads_; ++w) {
    if (!backend_factory) {
      backends_.push_back(std::make_unique<CpuOmegaBackend>(kernel_));
      continue;
    }
    auto backend = backend_factory();
    // Graceful degradation: a device-lost error demotes this worker's
    // backend to the CPU loop instead of quarantining the rest of its work.
    if (options.recovery.fallback_to_cpu) {
      backend = std::make_unique<FallbackBackend>(std::move(backend), kernel_);
    }
    backends_.push_back(std::move(backend));
  }
  states_.resize(threads_);
  if (threads_ > 1) pool_.emplace(threads_ - 1);
}

ScanExecutor::~ScanExecutor() = default;

void ScanExecutor::begin(const std::vector<GridPosition>& grid,
                         ScanResult& result) const {
  result.scores.resize(grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    result.scores[g].position_bp = grid[g].position_bp;
  }
  ScanProfile& profile = result.profile;
  profile.kernel.requested = cpu_kernel_name(options_.cpu_kernel);
  profile.kernel.selected = cpu_kernel_name(kernel_);
  profile.kernel.avx2_supported = cpu_kernel_available(CpuKernelKind::Avx2);
  profile.kernel.avx512_supported =
      cpu_kernel_available(CpuKernelKind::Avx512);
  profile.sched.requested_threads = options_.threads;
  profile.sched.workers = hetero_ ? hetero_->total_workers() : threads_;
}

std::string ScanExecutor::config_backend_name() const {
  return hetero_ ? HeteroExecutor::canonical_backend_name()
                 : backends_[0]->name();
}

void ScanExecutor::run(const std::vector<GridPosition>& grid,
                       std::size_t begin, std::size_t end,
                       const ld::LdEngine& engine,
                       std::vector<PositionScore>& scores,
                       ScanProfile& profile) {
  if (hetero_) {
    hetero_->run(grid, begin, end, *pool_, engine, scores, profile.sched,
                 options_.progress, cancel());
    return;
  }
  if (threads_ > 1) {
    const auto spans = build_scan_spans(grid, begin, end, threads_);
    scan_spans_parallel(grid, spans, *pool_, engine, options_.reuse,
                        options_.recovery, backends_, states_, scores,
                        profile.sched, options_.progress, cancel());
    return;
  }
  SpanWorkerState& state = states_[0];
  bool first = true;
  try {
    for (std::size_t g = begin; g < end; ++g) {
      if (cancel_.should_stop()) break;
      const GridPosition& position = grid[g];
      PositionScore& score = scores[g];
      if (!position.valid || score.valid || score.quarantined) continue;
      // Seam carryovers are a serial-stream observable: with one matrix,
      // "did relocation survive the chunk seam" is well defined (a matrix is
      // live on a run's first position only when an earlier run left it so).
      // Multithreaded streams keep one matrix per worker and report 0.
      if (first &&
          can_relocate(state.matrix, state.live, options_.reuse, position)) {
        ++profile.stream.seam_carryovers;
      }
      first = false;
      advance_matrix(state.matrix, state.live, options_.reuse, position,
                     engine);
      score_position(*backends_[0], state.matrix, position, options_.recovery,
                     score, options_.progress);
    }
  } catch (const util::CancelledError&) {
    // A simulator backend observed the cancel mid-launch; the position in
    // flight stays unscored (neither valid nor quarantined) and the drain
    // proceeds with whatever is settled so far.
  }
}

void ScanExecutor::invalidate() noexcept {
  if (hetero_) hetero_->invalidate_matrices();
  for (SpanWorkerState& state : states_) state.live = false;
}

void ScanExecutor::finalize(ScanProfile& profile) const {
  profile.telemetry = scope_.snapshot().merged_with(profile.telemetry);
  if (hetero_) {
    hetero_->finalize(profile);
  } else {
    for (std::size_t w = 0; w < backends_.size(); ++w) {
      fold_worker(profile, states_[w].matrix, *backends_[w]);
    }
    profile.omega_backend = backends_[0]->name();
  }
  profile.total_seconds += clock_.seconds();
  derive_profile(profile);
  finalize_ld_engine(profile, options_);
  finalize_perf_stats(profile);
}

void ScanExecutor::end(const std::vector<GridPosition>& grid,
                       ScanResult& result) const {
  finalize_runtime(result.profile, cancel_, options_.deadline_seconds, grid,
                   result.scores);
  finalize(result.profile);
  if (options_.progress != nullptr) options_.progress->finish();
}

bool can_relocate(const DpMatrix& m, bool m_live, bool reuse,
                  const GridPosition& position) noexcept {
  return reuse && m_live && position.lo >= m.base() &&
         position.c >= m.first_row();
}

void advance_matrix(DpMatrix& m, bool& m_live, bool reuse,
                    const GridPosition& position,
                    const ld::LdEngine& engine) {
  static const util::probe::Site kReset("scan.ld.reset", "scan.reset_seconds",
                                        "scan.reset");
  static const util::probe::Site kRelocate(
      "scan.ld.relocate", "scan.relocate_seconds", "scan.relocate");
  static const util::probe::Site kExtend(
      "scan.ld.extend", "scan.extend_seconds", "scan.extend");
  if (!can_relocate(m, m_live, reuse, position)) {
    const util::probe::Stage stage(kReset);
    m.reset(position.lo);
  } else {
    const util::probe::Stage stage(kRelocate);
    m.relocate(position.lo, position.c);
  }
  {
    const util::probe::Stage stage(kExtend);
    m.extend(position.hi + 1, engine);
  }
  m_live = true;
}

void fold_worker(ScanProfile& profile, const DpMatrix& m,
                 const OmegaBackend& backend) {
  const DpMatrixStats& stats = m.stats();
  profile.relocation.resets += stats.resets;
  profile.relocation.relocations += stats.relocations;
  profile.relocation.cells_reused += stats.cells_reused;
  profile.relocation.cells_recomputed += stats.cells_recomputed;
  profile.r2_fetched += m.r2_fetches();
  backend.contribute(profile);
}

bool score_position(OmegaBackend& backend, const DpMatrix& m,
                    const GridPosition& position,
                    const RecoveryPolicy& recovery, PositionScore& score,
                    util::ProgressReporter* progress, bool quarantine) {
  static const util::probe::Site kSearch(
      "scan.omega.search", "scan.omega_search_seconds", "scan.omega_search");
  static util::telemetry::Counter& positions =
      util::telemetry::counter("scan.positions_scanned");
  static util::telemetry::Counter& evaluations =
      util::telemetry::counter("scan.omega_evaluations");
  static util::telemetry::Counter& quarantined =
      util::telemetry::counter("scan.quarantined_positions");
  RecoveryOutcome outcome;
  {
    const util::probe::Stage stage(kSearch);
    outcome = recover_max_omega(backend, m, position, recovery);
  }
  const bool settled = outcome.ok || quarantine;
  if (progress != nullptr && (settled || outcome.faults > 0)) {
    util::ProgressReporter::Delta delta;
    delta.positions = settled ? 1 : 0;
    delta.faults = outcome.faults;
    delta.quarantined = outcome.ok ? 0 : delta.positions;
    progress->advance(delta);
  }
  if (!outcome.ok) {
    if (quarantine) {
      score.quarantined = true;
      quarantined.add(1);
      util::trace::instant("scan.recover.quarantine");
      // Exhausted recovery is a flight-recorder trigger: the first
      // quarantine since arm() dumps the black box (later ones only bump
      // the counter).
      util::flight::note_fault_exhausted();
    }
    return false;
  }
  score.max_omega = outcome.result.max_omega;
  score.best_a = outcome.result.best_a;
  score.best_b = outcome.result.best_b;
  score.evaluated = outcome.result.evaluated;
  score.valid = true;
  positions.add(1);
  evaluations.add(outcome.result.evaluated);
  return true;
}

}  // namespace omega::core::detail
