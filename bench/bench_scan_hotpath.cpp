// Perf-regression harness for the vectorized scan hot path (docs/PERF.md):
//
//   1. omega-kernel microbenchmark — ns per Eq. (2) window combination for
//      every kernel body the host runs (scalar reference, portable fused
//      loop, and the avx2 / avx512 instances of the width-generic body) on
//      the largest grid position of a figure-style dataset, each fused body
//      both exhaustive (the view's prune flag cleared) and pruned (as scans
//      run it). The headline regression gate is dispatched-vs-scalar
//      speedup of the exhaustive bodies (>= 6x whenever a vector instance is
//      dispatched; the fused form alone gives a measurable win even on
//      baseline hosts); a second gate holds the dispatched instance's
//      pruned-vs-exhaustive speedup.
//   2. DP-matrix extend throughput — Eq. (3) cells per second through the
//      suffix-scan extend (r2 fetch from the CLI's default LD engine
//      included), the second hot loop: once right after a reset, and once
//      through the relocate + extend walk of a default CLI stream scan,
//      with the matrix's resident cells. Reported, not gated (the
//      DpMatrixArena footprint test gates the walk's memory).
//   3. End-to-end scans — identical scans with --cpu-kernel=scalar vs the
//      dispatched kernel; positions/s and the whole ScanProfile embedded.
//
// Output: stdout tables + BENCH_SCAN.json (schema omega.bench).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_kernel_cpu.h"
#include "core/scanner.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "util/cpu_features.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using omega::core::CpuKernelKind;

/// Dispatched-vs-scalar ω speedup the bench requires when the dispatched
/// kernel is a vector instance (docs/PERF.md § Perf-regression harness).
constexpr double kSpeedupGate = 6.0;
/// Pruned-vs-exhaustive speedup of the dispatched vector instance on the
/// micro position (docs/PERF.md § Perf-regression harness).
constexpr double kPrunedGate = 12.0;

/// ns per window combination for one kernel body on the largest valid grid
/// position (the measure_omega_rate protocol, kernel-parametrized). A fused
/// body runs through the view omega_kernel_search builds, with its prune
/// flag cleared unless `prune`; the scalar reference is always exhaustive.
double measure_kernel_ns(const omega::io::Dataset& dataset,
                         const omega::core::OmegaConfig& config,
                         CpuKernelKind kind, bool prune,
                         double min_seconds = 0.4) {
  const auto grid = omega::core::build_grid(dataset, config);
  const omega::core::GridPosition* position = nullptr;
  for (const auto& candidate : grid) {
    if (candidate.valid && (position == nullptr ||
                            candidate.combinations() > position->combinations())) {
      position = &candidate;
    }
  }
  if (position == nullptr) throw std::runtime_error("no valid grid position");

  const omega::ld::SnpMatrix snps(dataset);
  const auto engine = omega::core::make_ld_engine(
      omega::core::LdBackendKind::Auto, dataset, snps);
  omega::core::DpMatrix m;
  m.reset(position->lo);
  m.extend(position->hi + 1, *engine);

  omega::core::OmegaKernelScratch scratch;
  std::uint64_t evaluated = 0;
  double best = 0.0;
  omega::util::Timer timer;
  do {
    if (kind == CpuKernelKind::Scalar) {
      const auto result =
          omega::core::omega_kernel_search(m, *position, kind, scratch);
      evaluated += result.evaluated;
      best = result.max_omega;  // defeat dead-code elimination
      continue;
    }
    omega::core::OmegaPositionView view =
        scratch.view(m, *position, position->b_min, position->hi, kind);
    view.prune = view.prune && prune;
    best = omega::core::omega_kernel_search_view(view, kind, scratch.omega)
               .value;
    evaluated += static_cast<std::uint64_t>(view.n_left) * view.n_right;
  } while (timer.seconds() < min_seconds);
  (void)best;
  return timer.seconds() * 1e9 / static_cast<double>(evaluated);
}

/// Eq. (3) cells per second through reset + suffix-scan extend (includes the
/// r2 block fetch of the engine the CLI runs by default, as in a real scan).
double measure_extend_rate(const omega::io::Dataset& dataset,
                           std::size_t region_rows,
                           double min_seconds = 0.4) {
  const omega::ld::SnpMatrix snps(dataset);
  const auto engine = omega::core::make_ld_engine(
      omega::core::LdBackendKind::Auto, dataset, snps);
  omega::core::DpMatrix m;
  std::uint64_t cells = 0;
  omega::util::Timer timer;
  do {
    m.reset(0);
    m.extend(region_rows, *engine);
    cells += region_rows * (region_rows - 1) / 2;
  } while (timer.seconds() < min_seconds);
  return static_cast<double>(cells) / timer.seconds();
}

struct WalkRate {
  double cells_per_s;
  std::size_t resident_cells;
};

/// Eq. (3) cells per second through relocate + extend along the walk of a
/// default CLI stream scan: a `window`-row region stepping `step` rows per
/// position and retiring at its split, as detail::advance_matrix drives it
/// (r2 fetch included; each walk's first, reset extend is not timed).
WalkRate measure_walk_rate(const omega::io::Dataset& dataset,
                           std::size_t window, std::size_t step,
                           double min_seconds = 0.4) {
  const omega::ld::SnpMatrix snps(dataset);
  const auto engine = omega::core::make_ld_engine(
      omega::core::LdBackendKind::Auto, dataset, snps);
  omega::core::DpMatrix m;
  std::uint64_t cells = 0;
  double seconds = 0.0;
  while (seconds < min_seconds) {
    m.reset(0);
    m.extend(window, *engine);
    const std::uint64_t before = m.stats().cells_recomputed;
    const omega::util::Timer timer;
    for (std::size_t lo = step; lo + window <= dataset.num_sites();
         lo += step) {
      m.relocate(lo, lo + window / 2);
      m.extend(lo + window, *engine);
    }
    seconds += timer.seconds();
    cells += m.stats().cells_recomputed - before;
  }
  return {static_cast<double>(cells) / seconds, m.capacity()};
}

std::string ns_str(double ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", ns);
  return buffer;
}

}  // namespace

int main() {
  const CpuKernelKind dispatched =
      omega::core::resolve_cpu_kernel(CpuKernelKind::Auto);
  const bool gate_armed = dispatched == CpuKernelKind::Avx2 ||
                          dispatched == CpuKernelKind::Avx512;
  std::printf("scan hot path benchmark — host ISA: %s, dispatched kernel: %s\n\n",
              omega::util::cpu_isa_summary().c_str(),
              omega::core::cpu_kernel_name(dispatched));

  omega::bench::BenchJson json("SCAN");
  json.set("isa", omega::util::cpu_isa_summary())
      .set("dispatched", omega::core::cpu_kernel_name(dispatched))
      .set("avx2_available",
           omega::core::cpu_kernel_available(CpuKernelKind::Avx2))
      .set("avx512_available",
           omega::core::cpu_kernel_available(CpuKernelKind::Avx512));

  // --- 1. omega-kernel microbenchmark ------------------------------------
  // Figure-style dataset, SNP windows: one large position dominated by the
  // inner Eq. (2) loop, the regime of the paper's Fig. 8/Fig. 9 kernels.
  const auto micro_dataset = omega::bench::figure_dataset(4'000, 50);
  omega::core::OmegaConfig micro_config;
  micro_config.grid_size = 40;
  micro_config.window_unit = omega::core::WindowUnit::Snps;
  micro_config.max_window = 3'000;
  micro_config.min_window = 4;

  omega::util::Table micro_table({"kernel", "ns/comb exhaustive",
                                   "speedup vs scalar", "ns/comb pruned",
                                   "pruned speedup"});
  auto micro = omega::core::metrics::JsonValue::object();
  double scalar_ns = 0.0;
  double dispatched_ns = 0.0;
  double dispatched_pruned_ns = 0.0;
  for (CpuKernelKind kind : {CpuKernelKind::Scalar, CpuKernelKind::Portable,
                             CpuKernelKind::Avx2, CpuKernelKind::Avx512}) {
    if (!omega::core::cpu_kernel_available(kind)) continue;
    const double ns =
        measure_kernel_ns(micro_dataset, micro_config, kind, false);
    const double pruned_ns =
        kind == CpuKernelKind::Scalar
            ? ns
            : measure_kernel_ns(micro_dataset, micro_config, kind, true);
    if (kind == CpuKernelKind::Scalar) scalar_ns = ns;
    if (kind == dispatched) {
      dispatched_ns = ns;
      dispatched_pruned_ns = pruned_ns;
    }
    const std::string name = omega::core::cpu_kernel_name(kind);
    micro_table.add_row({name, ns_str(ns), ns_str(scalar_ns / ns),
                         ns_str(pruned_ns), ns_str(ns / pruned_ns)});
    micro.set(name + "_ns_per_eval", ns);
    if (kind != CpuKernelKind::Scalar) {
      micro.set(name + "_pruned_ns_per_eval", pruned_ns);
    }
  }
  const double speedup = scalar_ns / dispatched_ns;
  const double pruned_speedup = dispatched_ns / dispatched_pruned_ns;
  const bool speedup_ok = !gate_armed || speedup >= kSpeedupGate;
  const bool pruned_ok = !gate_armed || pruned_speedup >= kPrunedGate;
  const bool gate_ok = speedup_ok && pruned_ok;
  std::printf("omega kernel (4000 SNPs x 50 samples, largest position; ns "
              "per window combination):\n");
  micro_table.print();
  std::printf("dispatched (%s) speedup vs scalar, exhaustive: %.2fx ",
              omega::core::cpu_kernel_name(dispatched), speedup);
  if (!gate_armed) {
    std::printf("[gate disarmed: no vector kernel]\n");
  } else {
    std::printf(speedup_ok ? "[OK >= %.0fx]\n" : "[BELOW %.0fx GATE]\n",
                kSpeedupGate);
  }
  std::printf("dispatched (%s) pruned vs exhaustive: %.2fx ",
              omega::core::cpu_kernel_name(dispatched), pruned_speedup);
  if (!gate_armed) {
    std::printf("[gate disarmed: no vector kernel]\n\n");
  } else {
    std::printf(pruned_ok ? "[OK >= %.1fx]\n\n" : "[BELOW %.1fx GATE]\n\n",
                kPrunedGate);
  }

  micro.set("dispatched_ns_per_eval", dispatched_ns);
  micro.set("dispatched_pruned_ns_per_eval", dispatched_pruned_ns);
  micro.set("speedup_dispatched_vs_scalar", speedup);
  micro.set("gate", kSpeedupGate);
  micro.set("speedup_pruned_vs_exhaustive", pruned_speedup);
  micro.set("pruned_gate", kPrunedGate);
  json.set("omega_kernel", std::move(micro));

  // --- 2. DP-matrix extend throughput ------------------------------------
  const auto extend_dataset = omega::bench::figure_dataset(3'000, 50);
  const double cells_per_s = measure_extend_rate(extend_dataset, 2'500);
  std::printf("dp-matrix extend (2500-row region, r2 fetch included): "
              "%.1f Mcells/s\n\n", cells_per_s / 1e6);
  // The stream shape: 64 haplotypes, 2,000-row regions, 200-row grid step.
  const auto walk_dataset = omega::bench::figure_dataset(10'000, 64);
  const WalkRate walk = measure_walk_rate(walk_dataset, 2'000, 200);
  std::printf("dp-matrix walk (2000-row window, 200-row step, retire at the "
              "split, r2 fetch included): %.1f Mcells/s relocate+extend, "
              "%zu resident cells\n\n",
              walk.cells_per_s / 1e6, walk.resident_cells);
  auto extend = omega::core::metrics::JsonValue::object();
  extend.set("region_rows", 2'500);
  extend.set("cells_per_s", cells_per_s);
  extend.set("walk_window_rows", 2'000);
  extend.set("walk_step_rows", 200);
  extend.set("walk_cells_per_s", walk.cells_per_s);
  extend.set("walk_resident_cells", walk.resident_cells);
  json.set("extend", std::move(extend));

  // --- 3. end-to-end scans ------------------------------------------------
  const auto scan_dataset = omega::bench::figure_dataset(10'000, 50);
  omega::core::OmegaConfig scan_config;
  scan_config.grid_size = 150;
  scan_config.window_unit = omega::core::WindowUnit::Snps;
  scan_config.max_window = 2'000;
  scan_config.min_window = 4;

  omega::core::ScannerOptions scalar_options;
  scalar_options.config = scan_config;
  scalar_options.cpu_kernel = CpuKernelKind::Scalar;
  const auto scalar_scan = omega::core::scan(scan_dataset, scalar_options);

  omega::core::ScannerOptions auto_options = scalar_options;
  auto_options.cpu_kernel = CpuKernelKind::Auto;
  const auto auto_scan = omega::core::scan(scan_dataset, auto_options);

  const double scalar_pps =
      static_cast<double>(scalar_scan.profile.positions_scanned) /
      scalar_scan.profile.total_seconds;
  const double auto_pps =
      static_cast<double>(auto_scan.profile.positions_scanned) /
      auto_scan.profile.total_seconds;

  omega::util::Table scan_table(
      {"kernel", "positions/s", "scan s", "omega share %"});
  scan_table.add_row({"scalar", ns_str(scalar_pps),
                      ns_str(scalar_scan.profile.total_seconds),
                      ns_str(100.0 * scalar_scan.profile.omega_share())});
  scan_table.add_row({auto_scan.profile.kernel.selected.c_str(),
                      ns_str(auto_pps),
                      ns_str(auto_scan.profile.total_seconds),
                      ns_str(100.0 * auto_scan.profile.omega_share())});
  std::printf("end-to-end scan (10000 SNPs x 50 samples, 150 positions, "
              "SNP windows <= 2000):\n");
  scan_table.print();
  std::printf("end-to-end speedup (positions/s): %.2fx\n", auto_pps / scalar_pps);

  json.add_scan_profile("scan_scalar", scalar_scan.profile);
  json.add_scan_profile("scan_dispatched", auto_scan.profile);
  auto end_to_end = omega::core::metrics::JsonValue::object();
  end_to_end.set("scalar_positions_per_s", scalar_pps);
  end_to_end.set("dispatched_positions_per_s", auto_pps);
  end_to_end.set("speedup", auto_pps / scalar_pps);
  json.set("end_to_end", std::move(end_to_end));

  json.write();
  return gate_ok ? 0 : 1;
}
