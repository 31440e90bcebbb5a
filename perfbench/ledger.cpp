// Perf ledger at the paper's shapes: three workloads that drive core::scan /
// core::stream_scan with the options omegaplus_scan builds by default.
//
//   perfbench_ledger gen   --workload W --seed S --dir D
//       Simulates the workload's input from the seed, writes it to D, and
//       caches reference scores for a seeded sample of grid positions.
//   perfbench_ledger run   --workload W --dir D
//       Loads D's input and runs the first scan of the process, untraced;
//       reports setup_s, scan_s, peak_rss_mib and the correctness check.
//   perfbench_ledger trace --workload W --dir D --trace-out F
//       The same load and scan through forwarding decorators (trace_hooks.h),
//       then per-layer numbers; genome_stream_mt adds its serial and
//       in-memory baselines. Spans are written to F as Chrome trace JSON.
//
// Every subcommand prints one JSON object on stdout; perfbench/run.py
// aggregates them.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/metrics_json.h"
#include "core/omega_search.h"
#include "core/reference.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "core/workload.h"
#include "io/chunk_reader.h"
#include "io/ms_format.h"
#include "io/vcf_lite.h"
#include "ld/ld_engine.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "trace_hooks.h"
#include "util/cancel.h"

namespace {

using namespace omega;
using core::metrics::JsonValue;
using Clock = std::chrono::steady_clock;

enum class Format { Ms, Vcf };

struct Workload {
  std::string_view name;
  /// Why the workload is in the ledger (mirrored in BENCHMARK.json).
  std::string_view why;
  std::size_t snps = 0;
  std::size_t haplotypes = 0;
  /// Expected recombination breakpoints over the locus (40 as in
  /// bench::figure_dataset; one per ten sites for the whole genome).
  double rho = 0.0;
  Format format = Format::Ms;
  bool streamed = false;
  std::size_t threads = 1;
  core::OmegaConfig config;
  /// Grid positions checked against the oracles on every run.
  std::size_t reference_positions = 0;

  /// One SNP per 100 bp (see evenly_spaced), the mean density of
  /// bench::figure_dataset.
  [[nodiscard]] std::int64_t locus_bp() const {
    return static_cast<std::int64_t>(snps) * 100;
  }
  [[nodiscard]] std::string input_name() const {
    return format == Format::Ms ? "input.ms" : "input.vcf";
  }
};

core::OmegaConfig snp_windows(std::int64_t max_window,
                              std::int64_t min_window) {
  core::OmegaConfig config;
  config.grid_size = 1'000;
  config.window_unit = core::WindowUnit::Snps;
  config.max_window = max_window;
  config.min_window = min_window;
  return config;
}

/// omegaplus_scan's defaults: --grid 1000 --maxwin 200000 --minwin 10000.
core::OmegaConfig cli_windows() {
  core::OmegaConfig config;
  config.grid_size = 1'000;
  config.max_window = 200'000;
  config.min_window = 10'000;
  return config;
}

/// omegaplus_scan's default --chunk-sites.
constexpr std::size_t kChunkSites = 100'000;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"fig13_50seq",
       "Figs. 12/13 shape, 3,000 SNPs x 50 haplotypes, ms input: windows span "
       "every site, so omega search dominates and M is built once",
       3'000, 50, 40.0, Format::Ms, false, 1,
       // bench::paper_gpu_config(): exhaustive SNP-unit windows.
       snp_windows(20'000, 4), 6},
      {"fig14_high_ld",
       "Fig. 14 high-LD mix, 5,000 SNPs x 2,000 haplotypes, VCF input: "
       "deep-sample LD, DP relocation and loading dominate; omega is small",
       5'000, 2'000, 40.0, Format::Vcf, false, 1, snp_windows(2'000, 1'380),
       // Few positions: each brute-force check costs seconds at this depth.
       2},
      {"genome_stream_mt",
       "200,000-site VCF x 64 haplotypes streamed in 100,000-site chunks by 2 "
       "workers plus IO: exercises the stream driver and shallow LD",
       200'000, 64, 20'000.0, Format::Vcf, true, 2, cli_windows(), 8},
  };
  return table;
}

const Workload& find_workload(std::string_view name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

io::Dataset load_dataset(const Workload& workload, const std::string& path) {
  if (workload.format == Format::Vcf) return io::read_vcf_file(path);
  io::MsReadOptions options;
  options.locus_length_bp = workload.locus_bp();
  std::vector<io::Dataset> replicates = io::read_ms_file(path, options);
  if (replicates.empty()) throw std::runtime_error("ms: no replicates");
  return std::move(replicates.front());
}

/// ScannerOptions as omegaplus_scan builds them for --backend cpu: LD engine
/// and CPU kernel on their shipped "auto" defaults (not the library default
/// ScannerOptions::ld), default recovery policy, cancel polling armed.
core::ScannerOptions cli_options(const Workload& workload) {
  core::ScannerOptions options;
  options.config = workload.config;
  options.threads = core::resolve_scan_threads(workload.threads);
  options.ld = core::LdBackendKind::Auto;
  options.cpu_kernel = core::CpuKernelKind::Auto;
  options.cancel = &util::process_cancel_token();
  return options;
}

core::StreamScanOptions cli_stream_options() {
  core::StreamScanOptions options;
  options.chunk_sites = kChunkSites;
  return options;
}

// --- reference scores -------------------------------------------------------

/// NaiveLd restricted to what DpMatrix::extend reads: of each fetched block
/// only cells strictly below the diagonal (column < row) enter the Eq. (3)
/// recurrence, so those come from the oracle, rows spread over a pool, and
/// the rest are zero-filled.
class LowerTriangleLd final : public ld::LdEngine {
 public:
  LowerTriangleLd(const io::Dataset& dataset, par::ThreadPool& pool)
      : naive_(dataset), pool_(pool) {}

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override {
    par::parallel_for(pool_, i0, i1, 1, [&](std::size_t i) {
      float* row = out + (i - i0) * ld;
      const std::size_t stop = std::clamp(i, j0, j1);
      if (stop > j0) naive_.r2_block(i, i + 1, j0, stop, row, ld);
      std::fill(row + (stop - j0), row + (j1 - j0), 0.0f);
    });
  }
  [[nodiscard]] std::string name() const override { return "naive-lower"; }
  [[nodiscard]] std::size_t num_sites() const override {
    return naive_.num_sites();
  }

 private:
  ld::NaiveLd naive_;
  par::ThreadPool& pool_;
};

struct ReferenceScore {
  std::size_t grid_index = 0;
  std::int64_t position_bp = 0;
  double max_omega = 0.0;
  std::size_t best_a = 0;
  std::size_t best_b = 0;
  /// brute_force_omega at (best_a, best_b) agreed with max_omega.
  bool oracles_agree = false;
};

/// DESIGN.md §5: relative agreement within 1e-4.
bool within_tolerance(double value, double reference) {
  return std::abs(value - reference) <=
         1e-4 * std::max(std::abs(reference), 1e-12);
}

std::vector<ReferenceScore> compute_reference(
    const io::Dataset& dataset, const std::vector<core::GridPosition>& grid,
    std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> valid;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    if (grid[g].valid) valid.push_back(g);
  }
  std::vector<std::size_t> sample;
  std::mt19937_64 rng(seed ^ 0x5eedf00dull);
  std::sample(valid.begin(), valid.end(), std::back_inserter(sample), count,
              rng);  // keeps grid order, so M relocates between samples

  par::ThreadPool pool(3);
  const LowerTriangleLd oracle(dataset, pool);
  core::DpMatrix m;
  bool live = false;
  std::vector<ReferenceScore> reference;
  for (const std::size_t g : sample) {
    const core::GridPosition& position = grid[g];
    if (!live || position.lo < m.base()) {
      m.reset(position.lo);
    } else {
      m.relocate(position.lo);
    }
    m.extend(position.hi + 1, oracle, &pool);
    live = true;
    const core::OmegaResult best = core::max_omega_search(m, position);
    ReferenceScore score;
    score.grid_index = g;
    score.position_bp = position.position_bp;
    score.max_omega = best.max_omega;
    score.best_a = best.best_a;
    score.best_b = best.best_b;
    score.oracles_agree = best.evaluated > 0;
    reference.push_back(score);
  }
  // One brute-force evaluation per sampled position, independent of each
  // other, so they run side by side.
  par::parallel_for(pool, 0, reference.size(), 1, [&](std::size_t k) {
    ReferenceScore& score = reference[k];
    const double brute = core::brute_force_omega(
        dataset, score.best_a, grid[score.grid_index].c, score.best_b);
    score.oracles_agree =
        score.oracles_agree && within_tolerance(brute, score.max_omega);
  });
  return reference;
}

void write_reference(const std::string& path,
                     const std::vector<ReferenceScore>& reference) {
  std::ofstream out(path);
  out.precision(17);
  for (const ReferenceScore& score : reference) {
    out << score.grid_index << ' ' << score.position_bp << ' '
        << score.max_omega << ' ' << score.best_a << ' ' << score.best_b
        << ' ' << (score.oracles_agree ? 1 : 0) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<ReferenceScore> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<ReferenceScore> reference;
  ReferenceScore score;
  int agree = 0;
  while (in >> score.grid_index >> score.position_bp >> score.max_omega >>
         score.best_a >> score.best_b >> agree) {
    score.oracles_agree = agree == 1;
    reference.push_back(score);
  }
  if (reference.empty()) throw std::runtime_error("empty reference " + path);
  return reference;
}

// --- checking a scan ----------------------------------------------------------

/// FNV-1a over every PositionScore field, so bitwise identity across runs is
/// visible as one string.
std::string score_digest(const std::vector<core::PositionScore>& scores) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  for (const core::PositionScore& score : scores) {
    mix(static_cast<std::uint64_t>(score.position_bp));
    mix(std::bit_cast<std::uint64_t>(score.max_omega));
    mix(score.best_a);
    mix(score.best_b);
    mix(score.evaluated);
    mix((score.valid ? 1u : 0u) | (score.quarantined ? 2u : 0u));
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

struct CheckResult {
  std::uint64_t attempted = 0;  // valid grid positions
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

/// Valid positions must come back valid and unquarantined; sampled ones must
/// match the reference within tolerance, on the same window or on one whose
/// brute-force omega is co-maximal. `dataset` is only needed (and loaded)
/// for that co-maximality check.
CheckResult check_scores(const std::vector<core::GridPosition>& grid,
                         const std::vector<core::PositionScore>& scores,
                         const std::vector<ReferenceScore>& reference,
                         const std::function<const io::Dataset&()>& dataset) {
  CheckResult check;
  std::vector<bool> bad(grid.size(), false);
  const auto fail = [&](std::size_t g, std::string problem) {
    if (check.problems.size() < 8) check.problems.push_back(std::move(problem));
    bad[g] = true;
  };
  for (std::size_t g = 0; g < grid.size(); ++g) {
    if (!grid[g].valid) continue;
    ++check.attempted;
    if (g >= scores.size()) {
      fail(g, "position " + std::to_string(g) + " missing");
    } else if (!scores[g].valid || scores[g].quarantined ||
               scores[g].position_bp != grid[g].position_bp) {
      fail(g, "position " + std::to_string(g) + " unscored or quarantined");
    }
  }
  for (const ReferenceScore& ref : reference) {
    const std::size_t g = ref.grid_index;
    if (g >= grid.size() || g >= scores.size() || !grid[g].valid ||
        grid[g].position_bp != ref.position_bp) {
      throw std::runtime_error("reference does not match the scan grid");
    }
    const core::PositionScore& score = scores[g];
    const std::string where = "position " + std::to_string(g);
    if (!ref.oracles_agree) {
      fail(g, where + ": NaiveLd search and brute force disagree");
    } else if (!within_tolerance(score.max_omega, ref.max_omega)) {
      fail(g, where + ": omega " + std::to_string(score.max_omega) +
                  " vs reference " + std::to_string(ref.max_omega));
    } else if (score.best_a != ref.best_a || score.best_b != ref.best_b) {
      const double at_reported = core::brute_force_omega(
          dataset(), score.best_a, grid[g].c, score.best_b);
      if (!within_tolerance(at_reported, ref.max_omega)) {
        fail(g, where + ": reported window is not co-maximal");
      }
    }
  }
  check.failed = static_cast<std::uint64_t>(
      std::count(bad.begin(), bad.end(), true));
  return check;
}

JsonValue problems_json(const std::vector<std::string>& problems) {
  JsonValue list = JsonValue::array();
  for (const std::string& problem : problems) list.push_back(problem);
  return list;
}

/// What a user would see change if a default moved.
void describe_defaults(JsonValue& out, const core::ScanProfile& profile) {
  out.set("ld_engine", profile.ld.engine);
  out.set("ld_isa", profile.ld.isa);
  out.set("cpu_kernel", profile.kernel.selected);
  out.set("workers", profile.sched.workers);
}

// --- gen ----------------------------------------------------------------------

/// The simulated sites re-spaced one per 100 bp. Grid geometry, and with it
/// every per-position work count, then depends on the workload alone: the
/// seed changes the genotypes and their LD but not how much work a scan
/// does, so runs on different seeds measure the same thing.
io::Dataset evenly_spaced(const io::Dataset& simulated) {
  std::vector<std::int64_t> positions(simulated.num_sites());
  std::vector<std::vector<std::uint8_t>> sites(simulated.num_sites());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    positions[i] = static_cast<std::int64_t>(i) * 100 + 50;
    sites[i] = simulated.site(i);
  }
  return {std::move(positions), std::move(sites), simulated.locus_length_bp()};
}

int cmd_gen(const Workload& workload, std::uint64_t seed,
            const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + workload.input_name();
  sim::DatasetSpec spec;
  spec.snps = workload.snps;
  spec.samples = workload.haplotypes;
  spec.locus_length_bp = workload.locus_bp();
  spec.rho = workload.rho;
  spec.seed = seed;
  {
    const io::Dataset generated = evenly_spaced(sim::make_dataset(spec));
    if (workload.format == Format::Vcf) {
      io::write_vcf_file(path, generated);
    } else {
      io::write_ms_file(path, {generated});
    }
  }
  // Reference scores come from the file as the scan will read it.
  const io::Dataset dataset = load_dataset(workload, path);
  const auto grid = core::build_grid(dataset, workload.config);
  const auto reference = compute_reference(
      dataset, grid, workload.reference_positions, seed);
  write_reference(dir + "/reference.txt", reference);
  JsonValue out = JsonValue::object();
  out.set("sites", static_cast<std::uint64_t>(dataset.num_sites()));
  out.set("haplotypes", static_cast<std::uint64_t>(dataset.num_samples()));
  out.set("input_bytes",
          static_cast<std::uint64_t>(std::filesystem::file_size(path)));
  out.set("reference_positions", static_cast<std::uint64_t>(reference.size()));
  std::cout << out.dump(0) << std::endl;
  return 0;
}

// --- run ----------------------------------------------------------------------

struct Input {
  std::string path;
  std::vector<ReferenceScore> reference;
  /// In-memory dataset (loaded on demand for streamed workloads).
  std::optional<io::Dataset> dataset;
};

const io::Dataset& dataset_of(const Workload& workload, Input& input) {
  if (!input.dataset) input.dataset = load_dataset(workload, input.path);
  return *input.dataset;
}

int cmd_run(const Workload& workload, const std::string& dir) {
  Input input{dir + "/" + workload.input_name(),
              read_reference(dir + "/reference.txt"), std::nullopt};
  const core::ScannerOptions options = cli_options(workload);
  double setup_s = 0.0;
  double scan_s = 0.0;
  core::ScanResult result;
  std::unique_ptr<io::VcfChunkReader> reader;
  if (workload.streamed) {
    const Clock::time_point load_start = Clock::now();
    reader = std::make_unique<io::VcfChunkReader>(input.path);  // pass 1
    setup_s = seconds_since(load_start);
    const Clock::time_point scan_start = Clock::now();
    result = core::stream_scan(*reader, options, cli_stream_options());
    scan_s = seconds_since(scan_start);
  } else {
    const Clock::time_point load_start = Clock::now();
    input.dataset = load_dataset(workload, input.path);
    setup_s = seconds_since(load_start);
    const Clock::time_point scan_start = Clock::now();
    result = core::scan(*input.dataset, options);
    scan_s = seconds_since(scan_start);
  }
  const double rss_mib = peak_rss_mib();  // before the check allocates

  const std::vector<std::int64_t>& positions =
      workload.streamed ? reader->index().positions_bp
                        : input.dataset->positions();
  const auto grid = core::build_grid(positions, workload.config);
  const CheckResult check =
      check_scores(grid, result.scores, input.reference,
                   [&]() -> const io::Dataset& {
                     return dataset_of(workload, input);
                   });
  JsonValue out = JsonValue::object();
  out.set("setup_s", setup_s);
  out.set("scan_s", scan_s);
  out.set("peak_rss_mib", rss_mib);
  out.set("attempted", check.attempted);
  out.set("failed", check.failed);
  out.set("digest", score_digest(result.scores));
  out.set("r2_fetched", result.profile.r2_fetched);
  describe_defaults(out, result.profile);
  out.set("problems", problems_json(check.problems));
  std::cout << out.dump(0) << std::endl;
  return 0;
}

// --- trace --------------------------------------------------------------------

/// Nearest-rank percentile of sorted `values`.
struct Percentile {
  double percent = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  // samples above the rank
};

Percentile percentile_at_rank(const std::vector<double>& sorted,
                              std::size_t rank) {
  Percentile p;
  if (sorted.empty()) return p;
  const std::size_t n = sorted.size();
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.percent = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  p.value = sorted[rank - 1];
  p.beyond = n - rank;
  return p;
}

Percentile median_of(const std::vector<double>& sorted) {
  return percentile_at_rank(sorted, (sorted.size() + 1) / 2);
}

/// The highest percentile that still has at least ten samples beyond it
/// (the median when there are too few samples for that).
Percentile tail_of(const std::vector<double>& sorted) {
  if (sorted.size() <= 20) return median_of(sorted);
  return percentile_at_rank(sorted, sorted.size() - 10);
}

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t work = 0;
  double seconds = 0.0;
  std::vector<double> durations;  // sorted
};

SpanTotals totals(const std::vector<perfbench::SpanRecord>& spans,
                  std::string_view name, std::uint32_t run) {
  SpanTotals total;
  for (const perfbench::SpanRecord& span : spans) {
    if (span.run != run || name != span.name) continue;
    ++total.calls;
    total.work += span.work;
    total.seconds += span.seconds();
    total.durations.push_back(span.seconds());
  }
  std::sort(total.durations.begin(), total.durations.end());
  return total;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Positions whose scores differ bitwise between two scans of one input.
std::uint64_t count_differences(const std::vector<core::PositionScore>& a,
                                const std::vector<core::PositionScore>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::uint64_t differ = 0;
  for (std::size_t g = 0; g < a.size(); ++g) {
    const bool same =
        a[g].position_bp == b[g].position_bp &&
        std::bit_cast<std::uint64_t>(a[g].max_omega) ==
            std::bit_cast<std::uint64_t>(b[g].max_omega) &&
        a[g].best_a == b[g].best_a && a[g].best_b == b[g].best_b &&
        a[g].evaluated == b[g].evaluated && a[g].valid == b[g].valid &&
        a[g].quarantined == b[g].quarantined;
    if (!same) ++differ;
  }
  return differ;
}

int cmd_trace(const Workload& workload, const std::string& dir,
              const std::string& trace_out) {
  constexpr std::uint32_t kRun = 1;
  Input input{dir + "/" + workload.input_name(),
              read_reference(dir + "/reference.txt"), std::nullopt};
  const double input_mib =
      static_cast<double>(std::filesystem::file_size(input.path)) /
      (1024.0 * 1024.0);
  perfbench::SpanLog log;
  log.set_parent(0, kRun);

  core::ScannerOptions options = cli_options(workload);
  const core::CpuKernelKind kernel = options.cpu_kernel;
  // make_ld_engine reads the Dataset only for the naive oracle; the Auto
  // engine packs the SnpMatrix it is handed (a chunk's, when streaming).
  static const io::Dataset kNoDataset;
  const io::Dataset* ld_dataset = &kNoDataset;
  options.ld_factory = [&](const ld::SnpMatrix& snps) {
    return std::make_unique<perfbench::TracedLd>(
        core::make_ld_engine(core::LdBackendKind::Auto, *ld_dataset, snps),
        log);
  };
  const auto backend_factory = [&]() -> std::unique_ptr<core::OmegaBackend> {
    return std::make_unique<perfbench::TracedOmega>(
        std::make_unique<core::CpuOmegaBackend>(kernel), log);
  };

  core::ScanResult traced;
  double load_s = 0.0;
  double scan_s = 0.0;
  std::unique_ptr<io::VcfChunkReader> reader;
  {
    perfbench::ScopedSpan load(log, "load");
    if (workload.streamed) {
      reader = std::make_unique<io::VcfChunkReader>(input.path);
      load.set_work(reader->index().num_sites());
    } else {
      input.dataset = load_dataset(workload, input.path);
      ld_dataset = &*input.dataset;
      load.set_work(input.dataset->num_sites());
    }
  }
  {
    const std::uint32_t scan_span = log.open("scan");
    log.set_parent(scan_span, kRun);
    const Clock::time_point scan_start = Clock::now();
    if (workload.streamed) {
      perfbench::TracedChunkReader traced_reader(*reader, log);
      traced = core::stream_scan(traced_reader, options, cli_stream_options(),
                                 backend_factory);
    } else {
      traced = core::scan(*input.dataset, options, backend_factory);
    }
    scan_s = seconds_since(scan_start);
    log.set_parent(0, 0);
    log.close(scan_span);
  }
  const std::vector<perfbench::SpanRecord> spans = log.spans();
  for (const perfbench::SpanRecord& span : spans) {
    if (std::string_view(span.name) == "load") load_s = span.seconds();
  }
  const std::vector<std::int64_t>& positions =
      workload.streamed ? reader->index().positions_bp
                        : input.dataset->positions();
  const auto grid = core::build_grid(positions, workload.config);
  const io::Dataset& dataset = dataset_of(workload, input);
  CheckResult check = check_scores(
      grid, traced.scores, input.reference,
      [&]() -> const io::Dataset& { return dataset; });
  const std::uint64_t r2_need =
      core::analyze_workload(dataset, workload.config).total_r2_with_reuse;

  const core::ScanProfile& profile = traced.profile;
  const SpanTotals ld_spans = totals(spans, "r2_block", kRun);
  const SpanTotals omega_spans = totals(spans, "max_omega", kRun);
  const SpanTotals next_spans = totals(spans, "next", kRun);

  // Scheduler numbers and the stream-vs-memory gap come from untraced scans
  // of the same input in this process, so decorators do not skew them.
  core::ScannerOptions plain = cli_options(workload);
  double workers_busy_s = 0.0;
  for (const core::SchedWorkerStats& worker : profile.sched.workers_detail) {
    workers_busy_s += worker.busy_seconds;
  }
  JsonValue layers = JsonValue::object();
  JsonValue baselines = JsonValue::object();
  // Streamed-vs-in-memory gaps exist only for the streamed workload.
  layers.set("stream.mt_gap_s", 0.0);
  layers.set("stream.mt_gap_ratio", 0.0);
  layers.set("ld.stream_cell_gap", 0.0);
  double speedup = 1.0;
  double imbalance = 1.0;
  std::uint64_t steals = 0;
  if (workload.streamed) {
    const auto timed = [&](const std::function<core::ScanResult()>& run,
                           const char* name) {
      const Clock::time_point start = Clock::now();
      core::ScanResult result = run();
      const double seconds = seconds_since(start);
      const std::uint64_t differ =
          count_differences(result.scores, traced.scores);
      if (differ > 0) {
        check.failed += differ;
        check.problems.push_back(std::string(name) + " differs from traced " +
                                 "scan at " + std::to_string(differ) +
                                 " positions");
      }
      JsonValue entry = JsonValue::object();
      entry.set("scan_s", seconds);
      entry.set("r2_fetched", result.profile.r2_fetched);
      entry.set("digest", score_digest(result.scores));
      baselines.set(name, std::move(entry));
      return std::make_pair(seconds, std::move(result));
    };
    const auto [mt_s, mt] = timed(
        [&] { return core::stream_scan(*reader, plain, cli_stream_options()); },
        "stream_mt");
    core::ScannerOptions serial = plain;
    serial.threads = 1;
    const auto [serial_s, serial_result] = timed(
        [&] {
          return core::stream_scan(*reader, serial, cli_stream_options());
        },
        "stream_serial");
    const auto [memory_s, memory] = timed(
        [&] { return core::scan(dataset, plain); }, "memory_mt");
    speedup = ratio(serial_s, mt_s);
    double mt_busy_s = 0.0;
    double mt_busy_max_s = 0.0;
    for (const core::SchedWorkerStats& worker :
         mt.profile.sched.workers_detail) {
      mt_busy_s += worker.busy_seconds;
      mt_busy_max_s = std::max(mt_busy_max_s, worker.busy_seconds);
    }
    const double workers =
        static_cast<double>(std::max<std::uint64_t>(1, mt.profile.sched.workers));
    imbalance = ratio(mt_busy_max_s, mt_busy_s / workers);
    steals = mt.profile.sched.steals;
    layers.set("stream.mt_gap_s", mt_s - memory_s);
    layers.set("stream.mt_gap_ratio", ratio(mt_s, memory_s) - 1.0);
    layers.set("ld.stream_cell_gap",
               ratio(static_cast<double>(mt.profile.r2_fetched),
                     static_cast<double>(memory.profile.r2_fetched)) -
                   1.0);
  }

  const double compute_s = workload.streamed ? workers_busy_s : scan_s;
  const Percentile p50 = median_of(omega_spans.durations);
  const Percentile tail = tail_of(omega_spans.durations);
  const std::uint64_t reused = profile.relocation.cells_reused;
  const std::uint64_t recomputed = profile.relocation.cells_recomputed;
  const std::uint64_t panel_total = profile.ld.panel_hits + profile.ld.panel_packs;
  const std::size_t sites = positions.size();

  layers.set("io.sites_per_s", ratio(static_cast<double>(sites), load_s));
  layers.set("io.mib_per_s", ratio(input_mib, load_s));
  layers.set("io.fetch_s", next_spans.seconds);
  layers.set("stream.chunks", profile.stream.chunks);
  layers.set("stream.io_stall_s", profile.stream.io_stall_seconds);
  layers.set("stream.io_hidden", profile.stream.io_overlap_ratio());
  layers.set("stream.peak_resident_sites",
             workload.streamed ? profile.stream.peak_resident_sites
                               : static_cast<std::uint64_t>(sites));
  layers.set("ld.calls", ld_spans.calls);
  layers.set("ld.cells", ld_spans.work);
  layers.set("ld.busy_s", ld_spans.seconds);
  layers.set("ld.cells_per_s",
             ratio(static_cast<double>(ld_spans.work), ld_spans.seconds));
  layers.set("ld.fetch_amplification",
             ratio(static_cast<double>(ld_spans.work),
                   static_cast<double>(r2_need)));
  layers.set("ld.panel_hit_ratio",
             ratio(static_cast<double>(profile.ld.panel_hits),
                   static_cast<double>(panel_total)));
  layers.set("dp.self_s", compute_s - ld_spans.seconds - omega_spans.seconds);
  layers.set("dp.reuse_ratio", ratio(static_cast<double>(reused),
                                     static_cast<double>(reused + recomputed)));
  layers.set("dp.resets", profile.relocation.resets);
  layers.set("omega.calls", omega_spans.calls);
  layers.set("omega.evals", omega_spans.work);
  layers.set("omega.busy_s", omega_spans.seconds);
  layers.set("omega.ns_per_eval",
             ratio(omega_spans.seconds * 1e9,
                   static_cast<double>(omega_spans.work)));
  layers.set("omega.call_p50_us", p50.value * 1e6);
  layers.set("omega.call_tail_us", tail.value * 1e6);
  layers.set("sched.workers", profile.sched.workers);
  layers.set("sched.speedup", speedup);
  layers.set("sched.efficiency",
             ratio(speedup, static_cast<double>(profile.sched.workers)));
  layers.set("sched.imbalance", imbalance);
  layers.set("sched.steals", steals);

  log.write_chrome_trace(trace_out);

  JsonValue out = JsonValue::object();
  out.set("setup_s", load_s);
  out.set("scan_s", scan_s);
  out.set("attempted", check.attempted);
  out.set("failed", check.failed);
  out.set("digest", score_digest(traced.scores));
  describe_defaults(out, profile);
  out.set("r2_need", r2_need);
  out.set("spans", static_cast<std::uint64_t>(spans.size()));
  JsonValue omega_calls = JsonValue::object();
  omega_calls.set("samples", omega_spans.calls);
  omega_calls.set("p50_pct", p50.percent);
  omega_calls.set("tail_pct", tail.percent);
  omega_calls.set("tail_beyond", static_cast<std::uint64_t>(tail.beyond));
  out.set("omega_calls", std::move(omega_calls));
  out.set("layers", std::move(layers));
  out.set("baselines", std::move(baselines));
  out.set("problems", problems_json(check.problems));
  std::cout << out.dump(0) << std::endl;
  return 0;
}

// --- main ---------------------------------------------------------------------

int usage() {
  std::cerr << "usage: perfbench_ledger gen|run|trace --workload NAME "
               "--dir DIR [--seed N] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (!args.count("workload") || !args.count("dir")) return usage();
    const Workload& workload = find_workload(args["workload"]);
    const std::string& dir = args["dir"];
    if (command == "gen") {
      if (!args.count("seed")) return usage();
      return cmd_gen(workload, std::stoull(args["seed"]), dir);
    }
    if (command == "run") return cmd_run(workload, dir);
    if (command == "trace") {
      if (!args.count("trace-out")) return usage();
      return cmd_trace(workload, dir, args["trace-out"]);
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "perfbench_ledger: error: " << error.what() << '\n';
    return 1;
  }
}
