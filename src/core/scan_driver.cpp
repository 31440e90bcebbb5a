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

/// End-of-scan LD accounting: fills ScanProfile::ld (schema v9) from the
/// options and the scan-attributed telemetry delta. Call after
/// profile.telemetry has been assigned.
void finalize_ld_stats(ScanProfile& profile, const ScannerOptions& options) {
  LdStats& ld = profile.ld;
  ld.requested =
      options.ld_factory ? "custom" : ld_backend_name(options.ld);
  ld.engine = profile.ld_backend;
  // make_ld_engine builds PackedLd with PackedIsa::Auto, so the resolved
  // microkernel body is reproducible from the build/host alone.
  ld.isa = profile.ld_backend == "packed"
               ? ld::packed_isa_name(ld::PackedIsa::Auto)
               : "";
  // Derived from the scan-attributed telemetry delta (must already be set):
  // this accumulates correctly across per-chunk engines in streamed scans
  // and across runs on checkpoint resume, with no extra plumbing.
  ld.panel_packs = profile.telemetry.counter_value("ld.panel_cache.misses");
  ld.panel_hits = profile.telemetry.counter_value("ld.panel_cache.hits");
  const util::telemetry::HistogramSnapshot* pack =
      profile.telemetry.find_histogram("ld.pack_seconds");
  ld.pack_seconds = pack != nullptr ? pack->sum : 0.0;
  const util::telemetry::HistogramSnapshot* kernel =
      profile.telemetry.find_histogram("ld.kernel_seconds");
  ld.kernel_seconds = kernel != nullptr ? kernel->sum : 0.0;
}

/// End-of-scan hardware-counter accounting: fills ScanProfile::perf (schema
/// v11) from the scan-attributed telemetry delta's perf.<stage>.* counters.
/// Like finalize_ld_stats, call after profile.telemetry has been assigned;
/// the block stays disabled when util::perf was never enabled.
void finalize_perf_stats(ScanProfile& profile) {
  PerfStats& perf = profile.perf;
  perf.enabled = util::perf::enabled();
  perf.source = perf.enabled ? util::perf::source() : "";
  perf.stages.clear();
  if (!perf.enabled) return;
  // Re-group the scan-attributed delta's flat perf.<stage>.<field> counters
  // into per-stage entries. A std::map keys them stage-name-sorted, matching
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

}  // namespace

ScanExecutor::ScanExecutor(const ScannerOptions& options,
                           const BackendFactory& backend_factory)
    : options_(options), telemetry_begin_(util::telemetry::snapshot()) {
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
  profiles_.resize(threads_);
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
  profile.kernel.avx2_supported = cpu_kernel_avx2_available();
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
                        profiles_, profile.sched, options_.progress, cancel());
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
      if (first && state.live && options_.reuse &&
          position.lo >= state.matrix.base()) {
        ++profile.stream.seam_carryovers;
      }
      first = false;
      advance_matrix(state.matrix, state.live, options_.reuse, position,
                     engine, profiles_[0].stages);
      score_position(*backends_[0], state.matrix, position, options_.recovery,
                     profiles_[0], score, options_.progress);
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
  if (hetero_) {
    hetero_->finalize(profile);
  } else {
    merge_span_workers(profile, profiles_, states_, backends_);
    profile.omega_backend = backends_[0]->name();
  }
  profile.total_seconds += clock_.seconds();
  // Registry state at construction: the delta attributes the process-wide
  // telemetry to this scan (ScanProfile::telemetry docs).
  profile.telemetry = util::telemetry::snapshot()
                          .delta_since(telemetry_begin_)
                          .merged_with(profile.telemetry);
  finalize_ld_stats(profile, options_);
  finalize_perf_stats(profile);
}

void ScanExecutor::end(const std::vector<GridPosition>& grid,
                       ScanResult& result) const {
  finalize_runtime(result.profile, cancel_, options_.deadline_seconds, grid,
                   result.scores);
  finalize(result.profile);
  if (options_.progress != nullptr) options_.progress->finish();
}

void advance_matrix(DpMatrix& m, bool& m_live, bool reuse,
                    const GridPosition& position, const ld::LdEngine& engine,
                    StageTimes& stages) {
  // Per-stage latency distributions; resolved once, then lock-free records.
  // Registered metrics are never deallocated, so these references stay valid
  // across telemetry::reset().
  static util::telemetry::Histogram& reset_hist =
      util::telemetry::histogram("scan.reset_seconds");
  static util::telemetry::Histogram& relocate_hist =
      util::telemetry::histogram("scan.relocate_seconds");
  static util::telemetry::Histogram& extend_hist =
      util::telemetry::histogram("scan.extend_seconds");
  // Hardware-counter attribution mirrors the histogram stages one-to-one:
  // each StageScope's `scopes` counter must equal the matching histogram's
  // count (the schema v11 reconciliation invariant tests assert).
  static util::perf::StageCounters& reset_perf =
      util::perf::stage("scan.reset");
  static util::perf::StageCounters& relocate_perf =
      util::perf::stage("scan.relocate");
  static util::perf::StageCounters& extend_perf =
      util::perf::stage("scan.extend");
  if (!reuse || !m_live || position.lo < m.base()) {
    const util::trace::Span span("scan.ld.reset");
    const util::perf::StageScope perf_scope(reset_perf);
    const util::Timer timer;
    m.reset(position.lo);
    const double elapsed = timer.seconds();
    stages.ld_reset_seconds += elapsed;
    reset_hist.record(elapsed);
  } else {
    const util::trace::Span span("scan.ld.relocate");
    const util::perf::StageScope perf_scope(relocate_perf);
    const util::Timer timer;
    m.relocate(position.lo);
    const double elapsed = timer.seconds();
    stages.ld_relocate_seconds += elapsed;
    relocate_hist.record(elapsed);
  }
  {
    const util::trace::Span span("scan.ld.extend");
    const util::perf::StageScope perf_scope(extend_perf);
    const util::Timer timer;
    m.extend(position.hi + 1, engine);
    const double elapsed = timer.seconds();
    stages.ld_extend_seconds += elapsed;
    extend_hist.record(elapsed);
  }
  m_live = true;
}

void merge_matrix_stats(ScanProfile& profile, const DpMatrix& m) {
  const DpMatrixStats& stats = m.stats();
  profile.relocation.resets += stats.resets;
  profile.relocation.relocations += stats.relocations;
  profile.relocation.cells_reused += stats.cells_reused;
  profile.relocation.cells_recomputed += stats.cells_recomputed;
  profile.r2_fetched += m.r2_fetches();
}

/// Folds a worker's chunk profile into the scan-wide one. Times add up as
/// CPU-seconds across workers (ScanProfile's documented multithreaded
/// semantics); counters add exactly.
void merge_worker_profile(ScanProfile& into, const ScanProfile& from) {
  into.ld_seconds += from.ld_seconds;
  into.omega_seconds += from.omega_seconds;
  into.omega_evaluations += from.omega_evaluations;
  into.r2_fetched += from.r2_fetched;
  into.positions_scanned += from.positions_scanned;
  into.stages.ld_reset_seconds += from.stages.ld_reset_seconds;
  into.stages.ld_relocate_seconds += from.stages.ld_relocate_seconds;
  into.stages.ld_extend_seconds += from.stages.ld_extend_seconds;
  into.stages.omega_search_seconds += from.stages.omega_search_seconds;
  into.stages.dispatch_seconds += from.stages.dispatch_seconds;
  into.relocation.resets += from.relocation.resets;
  into.relocation.relocations += from.relocation.relocations;
  into.relocation.cells_reused += from.relocation.cells_reused;
  into.relocation.cells_recomputed += from.relocation.cells_recomputed;
  into.gpu.kernel1_launches += from.gpu.kernel1_launches;
  into.gpu.kernel2_launches += from.gpu.kernel2_launches;
  into.gpu.kernel1_omegas += from.gpu.kernel1_omegas;
  into.gpu.kernel2_omegas += from.gpu.kernel2_omegas;
  into.gpu.modeled_kernel_seconds += from.gpu.modeled_kernel_seconds;
  into.gpu.modeled_prep_seconds += from.gpu.modeled_prep_seconds;
  into.gpu.modeled_transfer_seconds += from.gpu.modeled_transfer_seconds;
  into.gpu.modeled_total_seconds += from.gpu.modeled_total_seconds;
  into.gpu.bytes_moved += from.gpu.bytes_moved;
  into.fpga.pipeline_cycles += from.fpga.pipeline_cycles;
  into.fpga.stall_cycles += from.fpga.stall_cycles;
  into.fpga.hw_omegas += from.fpga.hw_omegas;
  into.fpga.sw_omegas += from.fpga.sw_omegas;
  into.fpga.modeled_seconds += from.fpga.modeled_seconds;
  into.faults.faults_injected += from.faults.faults_injected;
  into.faults.injected_kernel_launch += from.faults.injected_kernel_launch;
  into.faults.injected_timeout += from.faults.injected_timeout;
  into.faults.injected_nan += from.faults.injected_nan;
  into.faults.injected_device_lost += from.faults.injected_device_lost;
  into.faults.errors_caught += from.faults.errors_caught;
  into.faults.invalid_results += from.faults.invalid_results;
  into.faults.retries += from.faults.retries;
  into.faults.quarantined_positions += from.faults.quarantined_positions;
  into.faults.degradations += from.faults.degradations;
  into.faults.backoff_virtual_seconds += from.faults.backoff_virtual_seconds;
  into.kernel.positions += from.kernel.positions;
  into.kernel.scalar_evaluations += from.kernel.scalar_evaluations;
  into.kernel.portable_evaluations += from.kernel.portable_evaluations;
  into.kernel.avx2_evaluations += from.kernel.avx2_evaluations;
  if (into.omega_backend.empty()) into.omega_backend = from.omega_backend;
}

bool score_position(OmegaBackend& backend, const DpMatrix& m,
                    const GridPosition& position,
                    const RecoveryPolicy& recovery, ScanProfile& profile,
                    PositionScore& score, util::ProgressReporter* progress) {
  const std::uint64_t faults_before =
      profile.faults.errors_caught + profile.faults.invalid_results;
  RecoveryOutcome outcome;
  {
    const util::trace::Span span("scan.omega.search");
    static util::perf::StageCounters& search_perf =
        util::perf::stage("scan.omega_search");
    const util::perf::StageScope perf_scope(search_perf);
    const util::Timer timer;
    outcome = recover_max_omega(backend, m, position, recovery, profile.faults);
    profile.stages.omega_search_seconds += timer.seconds();
  }
  if (progress != nullptr) {
    util::ProgressReporter::Delta delta;
    delta.positions = 1;
    delta.faults = profile.faults.errors_caught +
                   profile.faults.invalid_results - faults_before;
    delta.quarantined = outcome.ok ? 0 : 1;
    progress->advance(delta);
  }
  if (!outcome.ok) {
    score.quarantined = true;
    // Exhausted recovery is a flight-recorder trigger: the first quarantine
    // since arm() dumps the black box (later ones only bump the counter).
    util::flight::note_fault_exhausted();
    return false;
  }
  score.max_omega = outcome.result.max_omega;
  score.best_a = outcome.result.best_a;
  score.best_b = outcome.result.best_b;
  score.evaluated = outcome.result.evaluated;
  score.valid = true;
  profile.omega_evaluations += outcome.result.evaluated;
  ++profile.positions_scanned;
  return true;
}

}  // namespace omega::core::detail
