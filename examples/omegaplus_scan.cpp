// Full command-line application mirroring the reference OmegaPlus tool:
// loads a dataset (ms / VCF / FASTA — or simulates one), runs the selected
// backend, and writes OmegaPlus-compatible Report/Info files.
//
//   # scan an ms file with 1,000 grid positions
//   $ ./omegaplus_scan --name run1 --input data.ms --length 1000000 \
//         --grid 1000 --minwin 10000 --maxwin 200000
//
//   # no input file: simulate 2,000 SNPs x 100 samples with a sweep planted
//   # mid-locus, scan on the simulated FPGA backend
//   $ ./omegaplus_scan --name demo --simulate-snps 2000 \
//         --simulate-samples 100 --plant-sweep --backend fpga
//
// Output: <reports-dir>/OmegaPlus_Report.<name> and OmegaPlus_Info.<name>.
// Observability outputs (--metrics-json, --trace-out, --metrics-text,
// --progress) are documented in docs/OBSERVABILITY.md; the metrics document
// is emitted even when the scan aborts, with "aborted": true and the error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/metrics_json.h"
#include "core/report.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "hw/accelerators.h"
#include "io/chunk_reader.h"
#include "io/fasta.h"
#include "io/ms_format.h"
#include "io/vcf_lite.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_coalescent.h"
#include "sim/sweep_overlay.h"
#include "util/cancel.h"
#include "util/cli.h"
#include "util/fault.h"
#include "util/flight_recorder.h"
#include "util/perf_counters.h"
#include "util/progress.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace {

std::string detect_format(const std::string& path) {
  const auto dot = path.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot + 1);
  if (ext == "ms" || ext == "out") return "ms";
  if (ext == "vcf") return "vcf";
  if (ext == "fa" || ext == "fasta" || ext == "fas") return "fasta";
  throw std::runtime_error("cannot infer format from '" + path +
                           "'; pass --format ms|vcf|fasta");
}

omega::io::Dataset load_input(const omega::util::Cli& cli) {
  const std::string input = cli.get("input", "");
  if (input.empty()) {
    // Simulation mode.
    omega::sim::DatasetSpec spec;
    spec.snps = cli.get_size("simulate-snps", 1'000);
    spec.samples = cli.get_size("simulate-samples", 50);
    spec.locus_length_bp = cli.get_int("length", 1'000'000);
    spec.rho = cli.get_double("simulate-rho", 80.0);
    spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    if (cli.get_bool("structured-sweep", false)) {
      // Structured-coalescent sweep: footprint derives from alpha = 2Ns.
      omega::sim::SweepCoalescentConfig sweep;
      sweep.samples = spec.samples;
      sweep.theta = cli.get_double("simulate-theta", 150.0);
      sweep.rho = spec.rho * 4.0;
      sweep.alpha = cli.get_double("sweep-alpha", 1'000.0);
      sweep.locus_length_bp = spec.locus_length_bp;
      sweep.sweep_position_bp =
          cli.get_int("sweep-pos", spec.locus_length_bp / 2);
      sweep.seed = spec.seed;
      return omega::sim::simulate_sweep_coalescent(sweep);
    }
    auto dataset = omega::sim::make_dataset(spec);
    if (cli.get_bool("plant-sweep", false)) {
      omega::sim::SweepConfig sweep;
      sweep.sweep_position_bp =
          cli.get_int("sweep-pos", spec.locus_length_bp / 2);
      sweep.carrier_fraction = cli.get_double("sweep-carriers", 0.95);
      sweep.seed = spec.seed + 1;
      dataset = omega::sim::apply_sweep(dataset, sweep);
    }
    return dataset;
  }

  std::string format = cli.get("format", "auto");
  if (format == "auto") format = detect_format(input);
  if (format == "ms") {
    omega::io::MsReadOptions options;
    options.locus_length_bp = cli.get_int("length", 1'000'000);
    auto replicates = omega::io::read_ms_file(input, options);
    if (replicates.empty()) throw std::runtime_error("ms: no replicates");
    const auto index = cli.get_size("replicate", 0);
    if (index >= replicates.size()) {
      throw std::runtime_error("ms: replicate index out of range");
    }
    return std::move(replicates[index]);
  }
  if (format == "vcf") {
    omega::io::VcfLoadReport report;
    auto dataset = omega::io::read_vcf_file(input, &report);
    std::printf("vcf: %zu records, %zu skipped\n", report.records_total,
                report.records_skipped);
    return dataset;
  }
  if (format == "fasta") {
    omega::io::FastaOptions options;
    options.impute_missing_as_major = cli.get_bool("impute", true);
    return omega::io::fasta_to_dataset(omega::io::read_fasta_file(input),
                                       options);
  }
  throw std::runtime_error("unknown format: " + format);
}

/// Loads the input, runs the scan, and writes reports plus any requested
/// observability outputs. Split out of main() so the abort path there can
/// still emit the metrics/trace documents when anything here throws.
int run_scan(const omega::util::Cli& cli, const std::string& name,
             const std::string& metrics_path, bool trace_enabled,
             omega::util::ProgressReporter* progress,
             const std::function<void()>& write_trace_file,
             const std::function<void()>& write_metrics_text) {
  const bool stream_mode = cli.get_bool("stream", false);
  omega::io::Dataset dataset;
  std::unique_ptr<omega::io::ChunkReader> reader;
  if (stream_mode) {
    const std::string input = cli.get("input", "");
    std::string format = cli.get("format", "auto");
    if (!input.empty() && format == "auto") format = detect_format(input);
    const bool file_streamed =
        !input.empty() && (format == "ms" || format == "vcf");
    if (file_streamed && cli.get_double("maf", 0.0) > 0.0) {
      std::fprintf(stderr,
                   "error: --maf is not supported with streamed ms/vcf input "
                   "(only the monomorphic filter runs record-at-a-time)\n");
      return 2;
    }
    if (file_streamed && format == "ms") {
      omega::io::MsReadOptions ms_options;
      ms_options.locus_length_bp = cli.get_int("length", 1'000'000);
      reader = std::make_unique<omega::io::MsChunkReader>(
          input, ms_options, cli.get_size("replicate", 0));
    } else if (file_streamed) {
      auto vcf = std::make_unique<omega::io::VcfChunkReader>(input);
      std::printf("vcf: %zu records, %zu skipped\n",
                  vcf->load_report().records_total,
                  vcf->load_report().records_skipped);
      reader = std::move(vcf);
    } else {
      // Simulated / fasta inputs have no streaming parser; chunk the loaded
      // dataset so the pipeline (and its metrics) still runs.
      dataset = load_input(cli);
      const double maf = cli.get_double("maf", 0.0);
      if (maf > 0.0) {
        const auto removed = dataset.filter_minor_allele(maf);
        std::printf("maf filter %.3f: removed %zu sites\n", maf, removed);
      }
      reader = std::make_unique<omega::io::DatasetChunkReader>(dataset);
    }
    std::printf("stream: indexed %zu sites x %zu haplotypes (%s)\n",
                reader->index().num_sites(), reader->index().num_samples,
                reader->name().c_str());
  } else {
    dataset = load_input(cli);
    const double maf = cli.get_double("maf", 0.0);
    if (maf > 0.0) {
      const auto removed = dataset.filter_minor_allele(maf);
      std::printf("maf filter %.3f: removed %zu sites\n", maf, removed);
    }
    std::printf("dataset: %s\n", dataset.shape_string().c_str());
  }

  omega::core::ScannerOptions options;
  options.config.grid_size = cli.get_size("grid", 1'000);
  options.config.max_window = cli.get_int("maxwin", 200'000);
  options.config.min_window = cli.get_int("minwin", 10'000);
  if (cli.get_bool("snp-windows", false)) {
    options.config.window_unit = omega::core::WindowUnit::Snps;
  }
  options.config.max_snps_per_side = cli.get_size("side-cap", 0);
  // 0 = auto-detect; resolve once here (the ScannerOptions::threads
  // convention) so the reported backend name carries the actual count.
  options.threads =
      omega::core::resolve_scan_threads(cli.get_size("threads", 1));
  // Default auto: the packed engine with runtime AVX2/scalar microkernel
  // dispatch; naive is the double-precision oracle.
  try {
    options.ld =
        omega::core::ld_backend_from_name(cli.get("ld-engine", "auto"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  options.progress = progress;
  try {
    options.cpu_kernel =
        omega::core::cpu_kernel_from_name(cli.get("cpu-kernel", "auto"));
    // Fail fast on a forced-but-unrunnable kernel (e.g. --cpu-kernel=avx512
    // on a host without AVX-512F) instead of deep inside scan().
    (void)omega::core::resolve_cpu_kernel(options.cpu_kernel);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }

  // Cooperative cancellation: SIGINT/SIGTERM flip the process token, and a
  // --deadline-seconds budget converts expiry into the same drain path. The
  // scan stops at the next position boundary, commits what it has, and the
  // report/metrics/checkpoint paths below still run.
  options.cancel = &omega::util::process_cancel_token();
  options.deadline_seconds = cli.get_double("deadline-seconds", 0.0);

  // Fault injection (simulated accelerators only) + recovery policy.
  omega::util::fault::FaultPlan fault_plan;
  fault_plan.mode =
      omega::util::fault::mode_from_name(cli.get("fault-mode", "none"));
  fault_plan.rate = cli.get_double("fault-rate", 0.1);
  fault_plan.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1337));
  fault_plan.window_begin = cli.get_size("fault-after", 0);
  fault_plan.device_lost_after = cli.get_size("device-lost-after", 0);
  fault_plan.validate();
  const double modeled_timeout = cli.get_double("modeled-timeout", 0.0);
  options.recovery.max_retries = cli.get_size("max-retries", 3);
  options.recovery.fallback_to_cpu = cli.get_bool("cpu-fallback", true);

  const std::string directory = cli.get("reports-dir", ".");
  std::filesystem::create_directories(directory);

  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = cli.get_size("chunk-sites", 100'000);
  const bool resume = cli.get_bool("resume", false);
  if (cli.has("checkpoint") || resume) {
    // `--checkpoint` alone uses the default path next to the reports;
    // `--checkpoint=path` overrides it. `--resume` implies checkpointing.
    const std::string raw = cli.get("checkpoint", "true");
    stream_options.checkpoint_path =
        raw == "true" ? directory + "/" + name + ".ckpt" : raw;
    stream_options.resume = resume;
    stream_options.source_path = cli.get("input", "");
  }

  const std::string backend = cli.get("backend", "cpu");
  omega::core::ScanResult result;
  std::string backend_name = "cpu";
  // One dispatch for both drivers: the streamed and in-memory scans take the
  // same options and backend factories.
  const auto run =
      [&](const std::function<std::unique_ptr<omega::core::OmegaBackend>()>&
              factory) {
        return stream_mode
                   ? omega::core::stream_scan(*reader, options, stream_options,
                                              factory)
                   : omega::core::scan(dataset, options, factory);
      };
  if (backend == "cpu") {
    result = run({});
    backend_name = options.threads > 1
                       ? "cpu x" + std::to_string(options.threads)
                       : "cpu";
  } else if (backend == "gpu" || backend == "fpga" || backend == "hetero") {
    // The simulated devices come from the one hw:: factory the detector uses
    // too; each gets the fault plan, cancel token, modeled timeout and CPU
    // kernel. Hetero splits the grid across the CPU span engine and both
    // accelerators concurrently (core/hetero_scheduler.h); its results are
    // bitwise-identical to --backend=cpu for any split.
    using omega::hw::AcceleratorKind;
    omega::hw::AcceleratorOptions accelerator_options;
    accelerator_options.kind = backend == "gpu"    ? AcceleratorKind::Gpu
                               : backend == "fpga" ? AcceleratorKind::Fpga
                                                   : AcceleratorKind::Hetero;
    if (backend == "hetero") {
      try {
        accelerator_options.split =
            omega::core::HeteroSplit::parse(cli.get("hetero-split", "auto"));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
      }
    }
    accelerator_options.fault_plan = fault_plan;
    accelerator_options.cancel = options.cancel;
    accelerator_options.modeled_timeout_seconds = modeled_timeout;
    accelerator_options.cpu_kernel = options.cpu_kernel;
    const omega::hw::Accelerator accelerator =
        omega::hw::make_accelerator(accelerator_options);
    if (accelerator.hetero) {
      options.hetero = &*accelerator.hetero;
    } else {
      options.threads = 1;
    }
    result = run(accelerator.backend_factory);
    options.hetero = nullptr;  // the config goes out of scope with this branch
    backend_name =
        accelerator.hetero
            ? "hetero[" + accelerator_options.split.name() + "]"
            : accelerator.name;
  } else {
    std::fprintf(stderr, "error: unknown backend '%s'\n", backend.c_str());
    return 2;
  }
  const auto& profile = result.profile;
  if (backend == "gpu") {
    std::printf("gpu-sim: modeled device time %.4f s (%llu on K1, %llu on K2)\n",
                profile.gpu.modeled_total_seconds,
                static_cast<unsigned long long>(profile.gpu.kernel1_launches),
                static_cast<unsigned long long>(profile.gpu.kernel2_launches));
  } else if (backend == "fpga") {
    std::printf("fpga-sim: modeled device time %.4f s (%llu hw / %llu sw omegas)\n",
                profile.fpga.modeled_seconds,
                static_cast<unsigned long long>(profile.fpga.hw_omegas),
                static_cast<unsigned long long>(profile.fpga.sw_omegas));
  } else if (backend == "hetero") {
    const auto& hetero_stats = profile.hetero;
    for (const auto& part : hetero_stats.partitions) {
      std::printf(
          "hetero: %-28s weight %.2f planned %llu actual %llu "
          "(modeled %.4f s, measured %.4f s)\n",
          part.backend.c_str(), part.weight,
          static_cast<unsigned long long>(part.planned_positions),
          static_cast<unsigned long long>(part.actual_positions),
          part.modeled_seconds, part.measured_seconds);
    }
    if (hetero_stats.redispatched_spans > 0) {
      std::printf("hetero: re-dispatched %llu faulted spans / %llu positions "
                  "to the cpu\n",
                  static_cast<unsigned long long>(
                      hetero_stats.redispatched_spans),
                  static_cast<unsigned long long>(
                      hetero_stats.redispatched_positions));
    }
  }
  if (fault_plan.enabled() && backend == "cpu") {
    std::fprintf(stderr,
                 "warning: --fault-mode only affects the gpu/fpga backends\n");
  }

  std::string report_path;
  if (stream_mode) {
    const auto& index = reader->index();
    const std::string summary =
        std::to_string(index.num_sites()) + " sites x " +
        std::to_string(index.num_samples) + " haplotypes, locus " +
        std::to_string(index.locus_length_bp) + " bp (streamed)";
    report_path =
        omega::core::write_run_files(directory, name, summary,
                                     index.has_missing, options, result,
                                     backend_name);
    const auto& stream = result.profile.stream;
    std::printf(
        "stream: %llu chunks, peak resident %llu of %llu sites "
        "(overlap %llu), %.0f%% IO hidden\n",
        static_cast<unsigned long long>(stream.chunks),
        static_cast<unsigned long long>(stream.peak_resident_sites),
        static_cast<unsigned long long>(stream.total_sites),
        static_cast<unsigned long long>(stream.overlap_sites),
        stream.io_overlap_ratio() * 100.0);
  } else {
    report_path = omega::core::write_run_files(directory, name, dataset,
                                               options, result, backend_name);
  }
  std::printf("scan: %llu omega evaluations in %.3f s (%.1f Mw/s)\n",
              static_cast<unsigned long long>(result.profile.omega_evaluations),
              result.profile.total_seconds,
              result.profile.omega_throughput() / 1e6);
  const auto& kernel = result.profile.kernel;
  std::printf("cpu-kernel: requested %s, selected %s (avx2 %s, avx512 %s)\n",
              kernel.requested.c_str(), kernel.selected.c_str(),
              kernel.avx2_supported ? "available" : "unavailable",
              kernel.avx512_supported ? "available" : "unavailable");
  const auto& faults = result.profile.faults;
  if (faults.faults_injected > 0 || faults.errors_caught > 0 ||
      faults.quarantined_positions > 0 || faults.degradations > 0) {
    std::printf(
        "recovery: %llu faults injected, %llu retries, %llu quarantined, "
        "%llu degradations (%.4f s virtual backoff)\n",
        static_cast<unsigned long long>(faults.faults_injected),
        static_cast<unsigned long long>(faults.retries),
        static_cast<unsigned long long>(faults.quarantined_positions),
        static_cast<unsigned long long>(faults.degradations),
        faults.backoff_virtual_seconds);
  }
  if (result.has_valid()) {
    const auto& best = result.best();
    std::printf("best: omega %.4f at %lld bp\n", best.max_omega,
                static_cast<long long>(best.position_bp));
  } else {
    std::printf("best: none (no position produced a valid omega score)\n");
  }
  std::printf("wrote %s\n", report_path.c_str());

  if (!metrics_path.empty()) {
    auto metrics = omega::core::metrics::scan_metrics(name, result.profile);
    if (trace_enabled) {
      metrics.set("trace", omega::core::metrics::trace_to_json());
    }
    omega::core::metrics::write_json_file(metrics_path, metrics);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  write_trace_file();
  write_metrics_text();

  const auto& runtime = result.profile.runtime;
  if (runtime.checkpoints_written > 0) {
    std::printf("checkpoint: %llu writes (%llu bytes) to %s%s\n",
                static_cast<unsigned long long>(runtime.checkpoints_written),
                static_cast<unsigned long long>(runtime.checkpoint_bytes),
                stream_options.checkpoint_path.c_str(),
                runtime.chunks_resumed > 0 ? " (resumed)" : "");
  }
  if (runtime.cancelled) {
    std::printf(
        "runtime: cancelled (%s) — partial results, %llu positions "
        "unscanned, drain latency %.3f s\n",
        runtime.cancel_reason.c_str(),
        static_cast<unsigned long long>(runtime.positions_skipped),
        runtime.cancel_latency_seconds);
    // Distinct exit codes so automation can tell a drained interruption
    // (resumable) from a hard failure: 10 = signal, 11 = deadline expiry.
    return runtime.cancel_reason == "deadline" ? 11 : 10;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("name", "run name used in the output file names (required)")
      .describe("input", "input file; omit to simulate a dataset")
      .describe("format", "ms | vcf | fasta | auto (default auto)")
      .describe("replicate", "ms replicate index (default 0)")
      .describe("length", "locus length in bp for ms input / simulation")
      .describe("grid", "number of omega positions (default 1000)")
      .describe("minwin", "minimum window in bp (default 10000)")
      .describe("maxwin", "maximum window in bp (default 200000)")
      .describe("snp-windows", "interpret minwin/maxwin as SNP counts")
      .describe("side-cap", "max SNPs per sub-region, 0 = unlimited")
      .describe("threads",
                "worker threads for the CPU scan (default 1; 0 = all cores)")
      .describe("stream",
                "memory-bounded streaming scan: read the input in overlapping "
                "chunks instead of loading it whole (ms/vcf stream from the "
                "file; other inputs chunk in memory)")
      .describe("chunk-sites",
                "streaming: target segregating sites per chunk "
                "(default 100000)")
      .describe("checkpoint",
                "streaming: write a crash-safe checkpoint after every "
                "committed chunk; optional value sets the path (default "
                "<reports-dir>/<name>.ckpt)")
      .describe("resume",
                "streaming: resume from the checkpoint instead of starting "
                "over; the dataset and scan config must match the run that "
                "wrote it")
      .describe("deadline-seconds",
                "wall-clock budget for the scan; expiry drains cleanly and "
                "exits 11 with a partial report (0 = no deadline)")
      .describe("ld-engine",
                "LD engine: auto | naive | packed (default auto = packed "
                "with runtime AVX2/scalar dispatch; naive is the "
                "double-precision oracle)")
      .describe("backend", "cpu | gpu | fpga | hetero (default cpu)")
      .describe("hetero-split",
                "hetero backend grid split: auto (modeled throughput) or "
                "cpu:gpu:fpga weights, e.g. 2:1:1 (default auto)")
      .describe("cpu-kernel",
                "cpu omega kernel: auto | scalar | portable | avx2 | avx512 "
                "(default auto = the widest vector body this host runs: "
                "avx512, then avx2, then portable)")
      .describe("reports-dir", "output directory (default .)")
      .describe("simulate-snps", "simulation: number of SNPs")
      .describe("simulate-samples", "simulation: number of haplotypes")
      .describe("simulate-rho", "simulation: recombination intensity")
      .describe("plant-sweep", "simulation: impose a hitchhiking overlay sweep")
      .describe("structured-sweep",
                "simulation: structured-coalescent sweep (alpha-driven)")
      .describe("sweep-alpha", "structured sweep: alpha = 2Ns (default 1000)")
      .describe("simulate-theta", "structured sweep: theta (default 150)")
      .describe("maf", "drop sites with minor-allele frequency below this")
      .describe("sweep-pos", "simulation: sweep position in bp")
      .describe("sweep-carriers", "simulation: carrier fraction")
      .describe("seed", "simulation seed")
      .describe("impute", "fasta: impute gaps as major allele (default true)")
      .describe("metrics-json",
                "write the scan metrics document (omega.scan.metrics schema) "
                "to this path")
      .describe("trace",
                "record trace spans during the scan; embedded in the "
                "--metrics-json document")
      .describe("trace-out",
                "write the scan trace as a Chrome trace-event JSON file "
                "(loadable in Perfetto / chrome://tracing); implies --trace")
      .describe("metrics-text",
                "write the telemetry registry in Prometheus text exposition "
                "format to this path ('-' for stdout)")
      .describe("progress",
                "live progress on stderr; optional value sets the minimum "
                "seconds between updates (default 1.0), e.g. --progress=5")
      .describe("perf-counters",
                "sample hardware counters (cycles, instructions, cache/branch "
                "misses) per scan stage via perf_event_open; degrades to a "
                "clock-only fallback where perf is unavailable and stamps the "
                "metrics 'perf' block either way")
      .describe("flight-recorder",
                "arm the crash flight recorder: on a fatal signal, SIGTERM, "
                "std::terminate, or exhausted fault recovery, dump the last "
                "trace events + telemetry + perf block as JSON; optional "
                "value sets the path (default <metrics-json>.flight.json, or "
                "<reports-dir>/<name>.flight.json without --metrics-json)")
      .describe("fault-mode",
                "inject accelerator faults: none | kernel-launch | timeout | "
                "nan | device-lost | mixed (default none)")
      .describe("fault-rate", "per-call fault probability (default 0.1)")
      .describe("fault-seed", "fault-injection PRNG seed (default 1337)")
      .describe("fault-after",
                "first backend call eligible for injection (default 0)")
      .describe("device-lost-after",
                "lose the device permanently at the N-th backend call")
      .describe("modeled-timeout",
                "per-position modeled device-time budget in seconds; "
                "exceeding it raises a timeout error (0 = off)")
      .describe("max-retries",
                "retries per position before quarantine (default 3)")
      .describe("cpu-fallback",
                "demote a lost device to the CPU loop instead of "
                "quarantining the rest of its chunk (default true)");
  if (cli.wants_help()) {
    std::printf("%s",
                cli.help_text("omegaplus_scan — OmegaPlus-style sweep scanner")
                    .c_str());
    return 0;
  }
  cli.reject_unknown();

  const std::string name = cli.get("name", "");
  if (name.empty()) {
    std::fprintf(stderr, "error: --name is required (see --help)\n");
    return 2;
  }

  // Crash-safe runtime flags are validated up front so a bad combination
  // fails before any parsing or scanning starts.
  const bool stream_flag = cli.get_bool("stream", false);
  if (cli.get_bool("resume", false) && !stream_flag) {
    std::fprintf(stderr, "error: --resume requires --stream\n");
    return 2;
  }
  if (cli.has("checkpoint") && !stream_flag) {
    std::fprintf(stderr, "error: --checkpoint requires --stream\n");
    return 2;
  }
  if (cli.has("deadline-seconds") &&
      cli.get_double("deadline-seconds", 0.0) <= 0.0) {
    std::fprintf(stderr, "error: --deadline-seconds must be > 0\n");
    return 2;
  }
  omega::util::install_cancel_signal_handlers();

  // Observability outputs are resolved before any heavy work so the abort
  // path below can still emit them when loading or scanning fails.
  const std::string metrics_path = cli.get("metrics-json", "");
  if (cli.get_bool("perf-counters", false)) {
    omega::util::perf::enable();
    std::fprintf(stderr, "perf: counters enabled (source: %s)\n",
                 omega::util::perf::source());
  }
  if (cli.has("flight-recorder")) {
    // Armed AFTER install_cancel_signal_handlers() so a SIGTERM first dumps
    // the flight record, then chains into the cancel token for a clean drain.
    const std::string raw = cli.get("flight-recorder", "true");
    omega::util::flight::FlightRecorderConfig flight;
    if (raw != "true") {
      flight.path = raw;
    } else if (!metrics_path.empty()) {
      flight.path = metrics_path + ".flight.json";
    } else {
      flight.path = cli.get("reports-dir", ".") + "/" + name + ".flight.json";
    }
    omega::util::flight::arm(flight);
    std::fprintf(stderr, "flight-recorder: armed, dump path %s\n",
                 flight.path.c_str());
  }
  const std::string trace_path = cli.get("trace-out", "");
  const std::string metrics_text_path = cli.get("metrics-text", "");
  const bool trace_enabled =
      cli.get_bool("trace", false) || !trace_path.empty();
  if (trace_enabled) omega::util::trace::enable();

  std::unique_ptr<omega::util::ProgressReporter> progress;
  if (cli.has("progress")) {
    // `--progress` alone parses as the value "true"; `--progress=5` sets the
    // update interval in seconds.
    const double interval = cli.get("progress", "true") == "true"
                                 ? 1.0
                                 : cli.get_double("progress", 1.0);
    progress = std::make_unique<omega::util::ProgressReporter>(
        omega::util::ProgressReporter::stderr_sink(), interval);
  }

  const auto write_trace_file = [&] {
    if (trace_path.empty()) return;
    omega::core::metrics::write_json_file(
        trace_path, omega::core::metrics::chrome_trace());
    std::printf("trace written to %s\n", trace_path.c_str());
  };
  const auto write_metrics_text = [&] {
    if (metrics_text_path.empty()) return;
    const std::string text = omega::util::telemetry::to_text();
    if (metrics_text_path == "-") {
      std::fputs(text.c_str(), stdout);
      return;
    }
    std::ofstream out(metrics_text_path);
    if (!out) throw std::runtime_error("cannot write " + metrics_text_path);
    out << text;
    std::printf("telemetry text written to %s\n", metrics_text_path.c_str());
  };

  try {
    return run_scan(cli, name, metrics_path, trace_enabled, progress.get(),
                    write_trace_file, write_metrics_text);
  } catch (const omega::util::UsageError& error) {
    return omega::util::usage_error(error);
  } catch (const omega::core::ResumeMismatchError& error) {
    // A checkpoint that does not match the current dataset/config is a usage
    // error (same class as a bad flag), not a scan failure.
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    if (!metrics_path.empty()) {
      // The metrics document is emitted even on abort so automation always
      // has an artifact to inspect: whatever telemetry accumulated before the
      // failure, plus "aborted": true and the error text.
      omega::core::ScanProfile profile;
      profile.telemetry = omega::util::telemetry::snapshot();
      auto metrics = omega::core::metrics::scan_metrics(name, profile);
      metrics.set("aborted", true);
      metrics.set("error", std::string(error.what()));
      if (trace_enabled) {
        metrics.set("trace", omega::core::metrics::trace_to_json());
      }
      try {
        omega::core::metrics::write_json_file(metrics_path, metrics);
        std::printf("metrics written to %s\n", metrics_path.c_str());
      } catch (const std::exception& write_error) {
        std::fprintf(stderr, "error: %s\n", write_error.what());
      }
    }
    try {
      write_trace_file();
      write_metrics_text();
    } catch (const std::exception& write_error) {
      std::fprintf(stderr, "error: %s\n", write_error.what());
    }
    return 1;
  }
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
