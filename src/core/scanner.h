#pragma once
// Full OmegaPlus workflow (paper Fig. 3): for every grid position, relocate
// the DP matrix over the overlapping SNP range (data-reuse optimization),
// compute r2 for fresh pairs through an LD engine, update M with the Eq. (3)
// recurrence, and run the omega maximization on the selected backend.
//
// Backends plug in through OmegaBackend, so the identical scan driver runs
// on the CPU nested loop, the GPU execution-model simulator, or the FPGA
// pipeline simulator, and results can be compared bit-for-bit at the level
// of reported max-omega windows. scan() is the single-resident-chunk case of
// stream_scan() (core/stream_scanner.h): both run every position through one
// executor (core/scan_driver.h) in serial, work-stealing or hetero mode.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_config.h"
#include "core/omega_kernel_cpu.h"
#include "core/omega_search.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "util/cancel.h"
#include "util/telemetry.h"

namespace omega::util {
class ProgressReporter;
}

namespace omega::core {

struct ScanProfile;
struct HeteroConfig;

/// omega-maximization backend for one grid position.
class OmegaBackend {
 public:
  virtual ~OmegaBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual OmegaResult max_omega(const DpMatrix& m,
                                const GridPosition& position) = 0;
  /// Adds backend-internal accounting (accelerator counters, modeled device
  /// time, injected faults) to the scan profile. The scan executor calls
  /// this on each backend instance when it finalizes the profile.
  virtual void contribute(ScanProfile& profile) const { (void)profile; }
};

/// The CPU omega loop, routed through the dispatched kernel layer
/// (core/omega_kernel_cpu.h): Auto resolves to the widest vector body the
/// binary and host support (AVX-512, then AVX2), the portable fused loop
/// otherwise, and the scalar reference only on explicit request. Evaluation counts per kernel body are
/// merged into ScanProfile::kernel via contribute().
class CpuOmegaBackend final : public OmegaBackend {
 public:
  /// Resolves `kind` against this binary/host; throws std::runtime_error
  /// when Avx2 or Avx512 is forced on a host that cannot run it.
  explicit CpuOmegaBackend(CpuKernelKind kind = CpuKernelKind::Auto);

  [[nodiscard]] std::string name() const override { return "cpu"; }
  OmegaResult max_omega(const DpMatrix& m,
                        const GridPosition& position) override;
  void contribute(ScanProfile& profile) const override;

  /// The concrete kernel this backend runs (never Auto).
  [[nodiscard]] CpuKernelKind kernel() const noexcept { return kind_; }

 private:
  CpuKernelKind kind_;
  OmegaKernelScratch scratch_;
  CpuKernelCounters counters_;
  std::uint64_t positions_ = 0;
};

/// Adapter delegating to a caller-owned backend. scan() destroys the
/// backends its factory produces when it returns; callers that want to
/// inspect backend state afterwards (accelerator accounting) own the real
/// backend and hand scan() borrowed views:
///
///   GpuOmegaBackend backend(spec, pool);
///   scan(dataset, options, [&] { return borrow_backend(backend); });
///   backend.accounting();  // safe
///
/// Only for single-threaded scans (options.threads == 1) unless the inner
/// backend is thread-safe: a multithreaded scan invokes the factory per
/// worker and every borrowed view would alias the same object.
class BorrowedBackend final : public OmegaBackend {
 public:
  explicit BorrowedBackend(OmegaBackend& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  OmegaResult max_omega(const DpMatrix& m,
                        const GridPosition& position) override {
    return inner_.max_omega(m, position);
  }
  void contribute(ScanProfile& profile) const override {
    inner_.contribute(profile);
  }

 private:
  OmegaBackend& inner_;
};

inline std::unique_ptr<OmegaBackend> borrow_backend(OmegaBackend& backend) {
  return std::make_unique<BorrowedBackend>(backend);
}

/// LD engine selector. Packed is the library's one CPU LD engine: bit-packed
/// and blocked, with runtime AVX2/scalar microkernel dispatch (ld/packed.h).
/// Auto resolves to it (via resolve_ld_backend). Naive is the unpacked
/// double-precision oracle. Any other engine — the simulated GPU's, or a
/// test's reference engine — goes in through ScannerOptions::ld_factory.
enum class LdBackendKind { Naive, Packed, Auto };

/// Resolves Auto to Packed (the engine itself dispatches AVX2 vs scalar per
/// host). Concrete kinds pass through.
[[nodiscard]] LdBackendKind resolve_ld_backend(LdBackendKind kind) noexcept;

/// Stable engine-kind names ("naive" | "packed" | "auto") — used by the CLI,
/// the checkpoint config hash, and the report.
[[nodiscard]] const char* ld_backend_name(LdBackendKind kind) noexcept;

/// Inverse of ld_backend_name; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] LdBackendKind ld_backend_from_name(std::string_view name);

/// Recovery policy for backend failures (core/resilience.h has the engine).
/// Backoff is accounted against a virtual clock — the scan never wall-sleeps,
/// so fault-heavy tests stay fast while the metrics still report how long a
/// real deployment would have waited.
struct RecoveryPolicy {
  /// Retries per position after the first failed attempt; exhaustion
  /// quarantines the position (valid = false, quarantined = true).
  std::size_t max_retries = 3;
  double backoff_initial_seconds = 1e-3;
  double backoff_multiplier = 2.0;
  /// Treat non-finite omega results (NaN/Inf from a flaky datapath) as
  /// transient failures subject to the same retry/quarantine path.
  bool validate_results = true;
  /// After a device-lost error, demote the backend to the CPU nested loop
  /// for the rest of its chunk instead of quarantining everything.
  bool fallback_to_cpu = true;

  /// Throws std::invalid_argument on nonsensical settings.
  void validate() const;
};

struct ScannerOptions {
  OmegaConfig config;
  LdBackendKind ld = LdBackendKind::Auto;
  /// Optional custom LD engine overriding `ld` — e.g. the simulated-GPU GEMM
  /// engine for the complete GPU-accelerated OmegaPlus configuration. The
  /// factory receives the scan's bit-packed matrix (alive for the scan).
  std::function<std::unique_ptr<ld::LdEngine>(const ld::SnpMatrix&)> ld_factory;
  /// Worker-thread count. THE thread-count convention (CLI, scan(), and
  /// stream_scan() all defer here): 1 = serial, > 1 = the work-stealing
  /// multithreaded scan (grid partitioned into relocation-coherent spans,
  /// one DP matrix + backend instance per worker) — the generic
  /// parallelization scheme of the multithreaded OmegaPlus evaluated in
  /// Table IV — and 0 = auto-detect: resolved to
  /// std::thread::hardware_concurrency() once, up front, by
  /// resolve_scan_threads(); the *resolved* count is what the profile and
  /// backend name report.
  std::size_t threads = 1;
  /// Disables M relocation between positions (ablation switch; OmegaPlus
  /// always reuses).
  bool reuse = true;
  /// Fault-recovery behaviour of the scan driver (retry/backoff, result
  /// validation, quarantine, CPU degradation). Default-on and free when the
  /// backend never fails.
  RecoveryPolicy recovery;
  /// Which CPU omega-kernel body evaluates grid positions (and serves as the
  /// degradation target of accelerator backends). Auto resolves at scan
  /// setup; forcing Avx2 or Avx512 on an unsupported binary/host makes
  /// scan() throw std::runtime_error before any position is evaluated.
  CpuKernelKind cpu_kernel = CpuKernelKind::Auto;
  /// Optional live progress reporter (util/progress.h). The scan drivers call
  /// begin()/advance()/finish() on it: one advance per scored position (with
  /// retry/quarantine deltas) plus one per streamed chunk. Not owned; must
  /// outlive the scan. The reporter rate-limits internally, so the per-
  /// position overhead is a mutex-guarded accumulate.
  util::ProgressReporter* progress = nullptr;
  /// Optional cooperative-cancellation token (util/cancel.h). Not owned; must
  /// outlive the scan. The drivers poll it between positions (and the
  /// simulator backends poll it around kernel launches), so a request drains
  /// cleanly: workers finish their current position, the partial result is
  /// returned with profile.runtime describing what was skipped, and nothing
  /// throws out of scan()/stream_scan().
  util::CancelToken* cancel = nullptr;
  /// Wall-clock budget for the scan; <= 0 disables. Expiry is converted into
  /// a cancellation (reason Deadline) on `cancel` — or on an internal token
  /// when none was supplied — so deadlines and signals share one drain path.
  double deadline_seconds = 0.0;
  /// Clock the deadline measures against (seconds, monotonic). Defaults to
  /// the steady clock; injectable so deadline expiry is testable without
  /// sleeping, mirroring the retry engine's virtual clock.
  util::Deadline::Clock deadline_clock;
  /// Heterogeneous co-scheduling (core/hetero_scheduler.h): when non-null,
  /// the scan splits the grid across the CPU span engine and the configured
  /// accelerator partitions concurrently, sized by modeled throughput, with
  /// faulted spans re-dispatched back to the CPU. Results stay bitwise-
  /// identical to the plain CPU scan. Overrides backend_factory; `threads`
  /// still bounds the total worker count. Not owned; must outlive the scan.
  const HeteroConfig* hetero = nullptr;
};

struct PositionScore {
  std::int64_t position_bp = 0;
  double max_omega = 0.0;
  std::size_t best_a = 0;
  std::size_t best_b = 0;
  std::uint64_t evaluated = 0;
  bool valid = false;
  /// Recovery gave up on this position (retries exhausted or device lost
  /// with fallback disabled); always paired with valid == false, so best()
  /// and top() skip it via the PR-1 invalid-score machinery.
  bool quarantined = false;
};

/// Per-stage time buckets (profile v2), each the sum of its stage probe's
/// histogram. The three DP-matrix stages add up to the legacy LD bucket;
/// omega_search is the backend max-omega loop. dispatch_seconds is an
/// *informational sub-bucket of omega_search* — the accelerator backends'
/// host-side packing + kernel-selection overhead — and is therefore
/// excluded from sum().
struct StageTimes {
  double ld_reset_seconds = 0.0;     // full DP-matrix rebuilds
  double ld_relocate_seconds = 0.0;  // in-place triangle moves (data reuse)
  double ld_extend_seconds = 0.0;    // r2 fetches + Eq. (3) recurrence
  double omega_search_seconds = 0.0; // backend omega maximization
  double dispatch_seconds = 0.0;     // accelerator pack + kernel dispatch
  [[nodiscard]] double ld_total() const noexcept {
    return ld_reset_seconds + ld_relocate_seconds + ld_extend_seconds;
  }
  [[nodiscard]] double sum() const noexcept {
    return ld_total() + omega_search_seconds;
  }
};

/// DP-matrix relocation effectiveness (the paper's data-reuse optimization):
/// how often consecutive grid positions reused the overlapping sub-triangle
/// and how many M cells that reuse saved.
struct RelocationStats {
  std::uint64_t resets = 0;       // positions that rebuilt M from scratch
  std::uint64_t relocations = 0;  // positions that kept the overlap (hits)
  std::uint64_t cells_reused = 0;      // M entries carried over by relocation
  std::uint64_t cells_recomputed = 0;  // M entries computed by extend()
};

/// Simulated-GPU counters: the Eq. (4) two-kernel dispatch and the modeled
/// device timeline.
struct GpuProfile {
  std::uint64_t kernel1_launches = 0;
  std::uint64_t kernel2_launches = 0;
  std::uint64_t kernel1_omegas = 0;  // omegas dispatched to Kernel I
  std::uint64_t kernel2_omegas = 0;  // omegas dispatched to Kernel II
  double modeled_kernel_seconds = 0.0;
  double modeled_prep_seconds = 0.0;
  double modeled_transfer_seconds = 0.0;
  double modeled_total_seconds = 0.0;
  std::uint64_t bytes_moved = 0;
};

/// Fault-tolerance counters (profile v3): what the injectors produced
/// (backend contributions) and what the recovery engine did about it
/// (derived from the scan's telemetry: errors_caught, retries and
/// backoff_virtual_seconds from the scan.retry.* histograms,
/// invalid_results and quarantined_positions from their counters).
/// All-zero in a healthy scan.
struct FaultRecoveryStats {
  std::uint64_t faults_injected = 0;  // total from backend fault injectors
  std::uint64_t injected_kernel_launch = 0;
  std::uint64_t injected_timeout = 0;
  std::uint64_t injected_nan = 0;
  std::uint64_t injected_device_lost = 0;
  /// BackendError exceptions the recovery engine caught (injected or real).
  std::uint64_t errors_caught = 0;
  /// Non-finite omega results rejected by result validation.
  std::uint64_t invalid_results = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantined_positions = 0;
  /// Device-lost events that demoted a backend instance to the CPU loop.
  std::uint64_t degradations = 0;
  /// Exponential-backoff wait accounted against the virtual clock (the scan
  /// never wall-sleeps).
  double backoff_virtual_seconds = 0.0;
};

/// CPU omega-kernel dispatch record (profile/metrics schema v4; the avx512
/// fields since v13): which kernel was requested, what the dispatcher
/// selected for this binary/host, and how many Eq. (2) evaluations each
/// kernel body performed. Evaluation counters
/// stay zero when an accelerator backend handled every position (they count
/// the CPU kernel layer only, including fault-degradation work).
struct CpuKernelStats {
  std::string requested;  // "auto" | "scalar" | "portable" | "avx2" | "avx512"
  std::string selected;   // concrete kernel Auto resolved to
  bool avx2_supported = false;    // binary + host can run the AVX2 body
  bool avx512_supported = false;  // binary + host can run the AVX-512 body
  std::uint64_t positions = 0;  // grid positions evaluated by the CPU kernel
  std::uint64_t scalar_evaluations = 0;
  std::uint64_t portable_evaluations = 0;
  std::uint64_t avx2_evaluations = 0;
  std::uint64_t avx512_evaluations = 0;
  /// Candidates whose M cells the CPU kernel loaded (v14): the
  /// *_evaluations count window combinations, and the fused bodies skip
  /// blocks that cannot win (core/omega_kernel_body.h).
  std::uint64_t candidates_scored = 0;
};

/// Streaming-scan accounting (profile/metrics schema v5): chunk geometry of
/// the bounded-memory pipeline and how well chunk IO overlapped compute.
/// All-zero when the scan ran in-memory.
struct StreamStats {
  std::uint64_t chunks = 0;             // chunks the stream plan produced
  std::uint64_t chunk_sites_target = 0; // requested sites-per-chunk bound
  std::uint64_t total_sites = 0;        // filtered sites across the stream
  /// Sites materialized more than once because consecutive chunks share the
  /// window-overlap region.
  std::uint64_t overlap_sites = 0;
  /// Max sites resident at once: current chunk + the prefetched next chunk
  /// under double buffering. The memory bound the subsystem exists for.
  std::uint64_t peak_resident_sites = 0;
  /// Chunk seams crossed with the DP matrix relocated rather than rebuilt.
  /// Serial streams only: with per-worker matrices (threads > 1) the seam is
  /// not a single observable, so multithreaded streams report 0.
  std::uint64_t seam_carryovers = 0;
  /// Chunks whose scan failed even after the chunk-level retry; their grid
  /// positions are quarantined and the stream continues.
  std::uint64_t failed_chunks = 0;
  double io_seconds = 0.0;        // chunk read/materialize time (IO thread)
  double io_stall_seconds = 0.0;  // compute thread blocked waiting on IO
  double compute_seconds = 0.0;   // per-chunk scan time (compute thread)

  /// Fraction of IO time hidden behind compute (1 = fully overlapped,
  /// 0 = fully serialized).
  [[nodiscard]] double io_overlap_ratio() const noexcept {
    if (io_seconds <= 0.0) return 0.0;
    const double hidden = io_seconds - io_stall_seconds;
    return hidden > 0.0 ? hidden / io_seconds : 0.0;
  }
};

/// Per-worker accounting of the work-stealing scan engine (schema v7).
struct SchedWorkerStats {
  std::uint64_t spans = 0;      // spans this worker claimed (own + stolen)
  std::uint64_t steals = 0;     // claims served from another worker's queue
  std::uint64_t positions = 0;  // valid positions this worker scored
  double busy_seconds = 0.0;    // wall time inside claimed spans
};

/// Work-stealing scheduler accounting (profile/metrics schema v7): how the
/// grid was partitioned into relocation-coherent spans and how evenly the
/// workers shared them. Serial scans report workers == 1 and spans == 0 (no
/// scheduler ran); streaming scans accumulate across chunks.
struct SchedStats {
  /// ScannerOptions::threads as the caller set it (0 = auto requested).
  std::uint64_t requested_threads = 0;
  /// Resolved worker count the scan actually ran with.
  std::uint64_t workers = 0;
  std::uint64_t spans = 0;   // spans built across the scan
  std::uint64_t steals = 0;  // cross-queue claims
  /// Per-worker detail, indexed by worker id; empty for serial scans.
  std::vector<SchedWorkerStats> workers_detail;

  /// Workers that claimed at least one span. Under stealing a worker can be
  /// fully robbed before its first claim, so this may be < workers.
  [[nodiscard]] std::uint64_t active_workers() const noexcept {
    std::uint64_t active = 0;
    for (const SchedWorkerStats& w : workers_detail) {
      if (w.spans > 0) ++active;
    }
    return active;
  }
};

/// Crash-safe runtime accounting (profile/metrics schema v8): cancellation,
/// deadline, and checkpoint/resume activity of one run. Deliberately NOT
/// accumulated across a resume (unlike every other profile block): each run
/// reports its own runtime behaviour, with resume_validations/chunks_resumed
/// describing how the run started.
struct RuntimeStats {
  /// The scan stopped before scoring every valid grid position (cancellation
  /// or deadline); skipped positions are neither valid nor quarantined.
  bool partial = false;
  bool cancelled = false;
  /// util::cancel_reason_name of the observed request; "" when !cancelled.
  std::string cancel_reason;
  /// "none" (no deadline set), "met", "expired", or "preempted" (a deadline
  /// was set but a different cancel reason fired first).
  std::string deadline_outcome = "none";
  double deadline_seconds = 0.0;
  /// Drain latency: first observation of the cancel request inside the scan
  /// driver until the partial result was assembled. 0 when !cancelled.
  double cancel_latency_seconds = 0.0;
  /// Valid grid positions left unscored by an early stop.
  std::uint64_t positions_skipped = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;  // summed over all writes this run
  /// Fingerprint + config-hash validations passed while loading a checkpoint
  /// (1 for a resumed run, 0 otherwise).
  std::uint64_t resume_validations = 0;
  /// Committed chunks preloaded from the checkpoint instead of rescanned.
  std::uint64_t chunks_resumed = 0;
};

/// LD-engine accounting (profile/metrics schema v9): which engine (and which
/// requested kind) served the scan's r2 fetches, the packed engine's
/// microkernel ISA and panel-cache effectiveness, and how the LD time splits
/// between packing panels and running the count kernels. Derived from the
/// scan's telemetry (ld.panel_cache.* counters, ld.pack_seconds /
/// ld.kernel_seconds histograms), so streamed scans accumulate across
/// per-chunk engines and resumes accumulate across runs. pack/kernel seconds
/// stay zero for engines without a pack phase (popcount/naive/gemm).
struct LdStats {
  std::string requested;  // options.ld as asked ("auto", ...; "custom")
  std::string engine;     // resolved engine name (== ld_backend)
  std::string isa;        // packed microkernel body: "avx2" | "scalar" | ""
  std::uint64_t panel_packs = 0;  // panel-cache misses (blocks packed)
  std::uint64_t panel_hits = 0;   // panel-cache hits (blocks reused)
  double pack_seconds = 0.0;      // time packing bit panels
  double kernel_seconds = 0.0;    // time in the count microkernels
};

/// Per-stage hardware-counter totals (profile/metrics schema v11). Derived
/// from the scan telemetry's perf.<stage>.{scopes,cycles,...} counters that
/// the stage probes (util/probe.h) record, so — exactly like the v9 "ld"
/// block — streamed scans accumulate across chunks and resumes accumulate
/// across runs. The stage set mirrors the instrumented latency histograms:
/// scan.reset / relocate / extend / omega_search, ld.pack / ld.kernel,
/// stream.chunk_fetch — each stage's `scopes` equals the matching
/// histogram's sample count.
struct PerfStageStats {
  std::string stage;
  std::uint64_t scopes = 0;        // probes completed (== histogram count)
  std::uint64_t cycles = 0;        // 0 under the clock-only fallback
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  double task_clock_seconds = 0.0;  // thread CPU time inside the scopes

  /// Instructions per cycle; 0 when no hardware counts were read.
  [[nodiscard]] double ipc() const noexcept {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  /// Cache misses per thousand instructions (MPKI).
  [[nodiscard]] double cache_mpki() const noexcept {
    return instructions > 0 ? 1000.0 * static_cast<double>(cache_misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
  }
  /// Branch misses per thousand instructions.
  [[nodiscard]] double branch_mpki() const noexcept {
    return instructions > 0 ? 1000.0 * static_cast<double>(branch_misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
  }
};

/// Hardware-counter profile of the scan (profile/metrics schema v11):
/// disabled (empty) unless util::perf::enable() — the CLI's --perf-counters
/// — was armed. `source` distinguishes real perf_event groups from the
/// rusage/steady-clock fallback a denied host degrades to.
struct PerfStats {
  bool enabled = false;
  std::string source;  // "perf_event" | "fallback" | "" when disabled
  /// Stage-name-sorted entries; only stages that recorded scopes appear.
  std::vector<PerfStageStats> stages;

  [[nodiscard]] const PerfStageStats* find(
      std::string_view stage_name) const noexcept {
    for (const PerfStageStats& entry : stages) {
      if (entry.stage == stage_name) return &entry;
    }
    return nullptr;
  }
};

/// Per-partition accounting of the heterogeneous co-scheduler (schema v10):
/// what the planner promised each backend and what it actually delivered.
struct HeteroPartitionStats {
  std::string backend;  // "cpu" or the accelerator partition name
  /// Normalized planned share of the estimated grid cost.
  double weight = 0.0;
  /// Valid positions the plan assigned to this partition (accumulated over
  /// planner invocations — one per stream chunk).
  std::uint64_t planned_positions = 0;
  /// Positions this partition actually settled (the CPU partition also
  /// counts re-dispatched positions it absorbed).
  std::uint64_t actual_positions = 0;
  std::uint64_t spans = 0;  // spans built for this partition's segments
  /// Cost model's prediction for the planned segments vs. the partition's
  /// measured busy wall time (max over its workers, summed across runs).
  double modeled_seconds = 0.0;
  double measured_seconds = 0.0;
  /// EWMA of measured throughput (core/rate_estimator.h), folded in once per
  /// planner run — the measured-vs-modeled error signal next to
  /// modeled_seconds (v11). Latest estimate wins across chunk merges and
  /// checkpoint resumes; 0 until the partition settles its first positions.
  double measured_rate_per_s = 0.0;
  std::uint64_t rate_observations = 0;
};

/// Heterogeneous co-scheduler accounting (profile/metrics schema v10):
/// all-zero/disabled unless the scan ran with --backend=hetero.
struct HeteroStats {
  bool enabled = false;
  std::string split;  // HeteroSplit::name(): "auto" or "c:g:f"
  std::uint64_t plans = 0;  // planner invocations (per chunk when streaming)
  /// Accelerator spans whose unsettled remainder went back to the CPU, and
  /// the positions those remainders carried. Recovery giving up on a
  /// position is the only cause, so faulted_spans == redispatched_spans.
  std::uint64_t redispatched_spans = 0;
  std::uint64_t redispatched_positions = 0;
  std::uint64_t faulted_spans = 0;
  /// CPU partition first, then each accelerator in configuration order.
  std::vector<HeteroPartitionStats> partitions;
};

/// Simulated-FPGA counters: pipeline occupancy of the §V design.
struct FpgaProfile {
  std::uint64_t pipeline_cycles = 0;  // total accelerator cycles
  std::uint64_t stall_cycles = 0;     // cycles lost to DRAM throttling
  std::uint64_t hw_omegas = 0;        // scores produced in hardware
  std::uint64_t sw_omegas = 0;        // unroll-remainder scores on the host
  double modeled_seconds = 0.0;
};

/// One scan's accounting, built at finalize by the executor
/// (core/scan_driver.h) from one ledger — the scan's telemetry scope: times,
/// position and evaluation counts, recovery counters and the stream's IO
/// times are derived from `telemetry` (docs/METRICS.md maps each field);
/// matrix counters and OmegaBackend::contribute are added directly.
struct ScanProfile {
  /// Bucket times. Single-threaded scans: wall clock. Multithreaded scans:
  /// CPU-seconds summed across workers — combine with total_seconds (always
  /// wall clock) and the bucket shares for elapsed-time rates.
  double ld_seconds = 0.0;     // r2 computation + Eq. (3) update of M
  double omega_seconds = 0.0;  // omega maximization (backend)
  double total_seconds = 0.0;  // whole scan, wall clock
  std::uint64_t omega_evaluations = 0;
  std::uint64_t r2_fetched = 0;

  // --- v2 observability ---------------------------------------------------
  /// Per-stage breakdown; stages.ld_total() == ld_seconds and
  /// stages.omega_search_seconds == omega_seconds by construction.
  StageTimes stages;
  RelocationStats relocation;
  /// Accelerator counters; all-zero unless the corresponding simulated
  /// backend ran (merged via OmegaBackend::contribute).
  GpuProfile gpu;
  FpgaProfile fpga;
  /// Fault-injection and recovery accounting (v3).
  FaultRecoveryStats faults;
  /// CPU kernel dispatch decision and per-body evaluation counts (v4).
  CpuKernelStats kernel;
  /// Streaming chunk pipeline accounting (v5); all-zero for in-memory scans.
  StreamStats stream;
  /// Work-stealing scheduler accounting (v7); workers == 1, spans == 0 for
  /// serial scans.
  SchedStats sched;
  /// Cancellation/deadline/checkpoint accounting (v8); defaults describe an
  /// uninterrupted, checkpoint-free run.
  RuntimeStats runtime;
  /// LD engine + packed-panel-cache accounting (v9), derived from the scan's
  /// telemetry at finalize.
  LdStats ld;
  /// Heterogeneous co-scheduler accounting (v10); disabled unless the scan
  /// ran with a HeteroConfig.
  HeteroStats hetero;
  /// Hardware-counter per-stage profile (v11); disabled unless
  /// util::perf::enable() was armed (CLI --perf-counters).
  PerfStats perf;
  /// This scan's telemetry (v6): a snapshot of its util::telemetry::Scope —
  /// what the scan's threads and pool tasks recorded, merged with a resumed
  /// checkpoint's (docs/OBSERVABILITY.md).
  util::telemetry::RegistrySnapshot telemetry;
  /// Grid positions that scored (valid positions), from the
  /// scan.positions_scanned counter.
  std::uint64_t positions_scanned = 0;
  /// Names recorded by the scan driver: the LD engine serving r2 fetches and
  /// the omega backend. Multi-worker scans record the first worker's backend
  /// (all workers use identically configured instances).
  std::string ld_backend;
  std::string omega_backend;

  /// Fraction of compute time spent in the omega bucket.
  [[nodiscard]] double omega_share() const noexcept {
    const double compute = ld_seconds + omega_seconds;
    return compute > 0.0 ? omega_seconds / compute : 0.0;
  }
  /// Elapsed-time omega throughput: evaluations over the omega share of the
  /// wall clock (exact for single-threaded scans, the honest estimate for
  /// multithreaded ones).
  [[nodiscard]] double omega_throughput() const noexcept {
    const double wall = total_seconds * omega_share();
    return wall > 0.0 ? static_cast<double>(omega_evaluations) / wall : 0.0;
  }
  [[nodiscard]] double ld_throughput() const noexcept {
    const double wall = total_seconds * (1.0 - omega_share());
    return wall > 0.0 ? static_cast<double>(r2_fetched) / wall : 0.0;
  }
};

struct ScanResult {
  std::vector<PositionScore> scores;
  ScanProfile profile;

  /// Highest-scoring position (throws on empty scan).
  [[nodiscard]] const PositionScore& best() const;
  /// Scores sorted by descending omega, truncated to k.
  [[nodiscard]] std::vector<PositionScore> top(std::size_t k) const;
  /// True when at least one position holds a valid score — false for empty
  /// scans and for fault-heavy scans where every position was quarantined;
  /// callers should check this before best().
  [[nodiscard]] bool has_valid() const noexcept;
};

/// Runs a scan over a resident dataset: one LD engine over all of it and one
/// executor pass over the whole grid. `backend_factory` supplies one backend
/// per worker thread (nullptr: CPU nested loop). With options.threads > 1
/// the factory is invoked once per worker.
ScanResult scan(const io::Dataset& dataset, const ScannerOptions& options,
                const std::function<std::unique_ptr<OmegaBackend>()>&
                    backend_factory = {});

/// Resolves the ScannerOptions::threads convention (documented there):
/// 0 -> std::thread::hardware_concurrency() (minimum 1), anything else
/// passes through. scan(), stream_scan(), and the CLI all call this exactly
/// once so profiles and backend names always carry the resolved count.
[[nodiscard]] std::size_t resolve_scan_threads(std::size_t requested) noexcept;

/// Resolves ScannerOptions::ld to a concrete engine over `snps` (or the
/// Dataset for the naive oracle). Shared with the streaming driver, which
/// builds one engine per chunk.
std::unique_ptr<ld::LdEngine> make_ld_engine(LdBackendKind kind,
                                             const io::Dataset& dataset,
                                             const ld::SnpMatrix& snps);

}  // namespace omega::core
