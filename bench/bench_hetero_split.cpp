// Heterogeneous co-scheduler: one scan split across the CPU span engine and
// both simulated accelerators (auto split and fixed ratios) against each
// backend running the same workload alone on the same thread budget. Writes
// BENCH_HETERO.json (consumed by the bench_hetero_diff ctest) with the full
// "hetero" block per run — planned vs actual positions, span counts, modeled
// vs measured partition seconds.
//
// The simulated devices are judged on modeled device time, never on the
// host time spent emulating them. Exit code 1 unless every gate holds:
//   * every run scores bitwise like cpu_only (one digest over all scores);
//   * no fault-free run re-dispatches a position to the CPU;
//   * each accelerator partition's planned modeled_seconds equals its
//     device's accounted seconds (profile gpu.modeled_total_seconds /
//     fpga.modeled_seconds) to 1e-12 relative — planner and device price
//     positions with the same launch_cost;
//   * hetero_auto's accelerator makespan, max(GPU, FPGA modeled), is at most
//     the better of the gpu_sim_only and fpga_sim_only modeled times.
// Host wall per run and hetero_auto's makespan including the CPU
// partition's measured busy time are reported, not gated: host wall is
// emulation speed, and the CPU busy time swings run to run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/scanner.h"
#include "hw/accelerators.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// FNV-1a over every score's coordinate, validity, omega bits and borders.
std::uint64_t score_digest(const omega::core::ScanResult& result) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& score : result.scores) {
    std::uint64_t omega_bits = 0;
    std::memcpy(&omega_bits, &score.max_omega, sizeof(omega_bits));
    mix(static_cast<std::uint64_t>(score.position_bp));
    mix(score.valid ? 1 : 0);
    mix(omega_bits);
    mix(score.best_a);
    mix(score.best_b);
  }
  return hash;
}

bool same_seconds(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

}  // namespace

int main() {
  const auto dataset = omega::bench::figure_dataset(4'000, 50);
  omega::core::OmegaConfig config;
  config.grid_size = 200;
  config.window_unit = omega::core::WindowUnit::Snps;
  config.max_window = 3'000;
  config.min_window = 500;

  const unsigned hw_threads = std::thread::hardware_concurrency();
  const std::size_t threads =
      std::max<std::size_t>(4, std::min<unsigned>(hw_threads, 8));
  std::printf("Heterogeneous co-scheduler (4,000 SNPs x 50 sequences, "
              "grid 200, %zu threads)\n", threads);
  std::printf("host: %u hardware threads\n\n", hw_threads);

  omega::bench::BenchJson json("HETERO");
  omega::util::Table table({"Run", "host wall s", "gpu modeled s",
                            "fpga modeled s", "re-dispatched", "partitions"});

  struct Run {
    std::string key;
    std::string split;  // empty = plain CPU scan (no co-scheduler)
  };
  const std::vector<Run> runs = {
      {"cpu_only", ""},           {"gpu_sim_only", "0:1:0"},
      {"fpga_sim_only", "0:0:1"}, {"hetero_auto", "auto"},
      {"hetero_1_1_1", "1:1:1"},
  };

  std::vector<std::string> failures;
  std::uint64_t cpu_digest = 0;
  double gpu_alone = 0.0;
  double fpga_alone = 0.0;
  double hetero_auto_makespan = 0.0;
  double hetero_auto_with_cpu = 0.0;
  for (const Run& run : runs) {
    omega::core::ScannerOptions options;
    options.config = config;
    options.threads = threads;
    std::optional<omega::hw::Accelerator> accelerator;
    if (!run.split.empty()) {
      omega::hw::AcceleratorOptions accelerator_options;
      accelerator_options.kind = omega::hw::AcceleratorKind::Hetero;
      accelerator_options.split = omega::core::HeteroSplit::parse(run.split);
      accelerator = omega::hw::make_accelerator(accelerator_options);
      options.hetero = &*accelerator->hetero;
    }

    const omega::util::Timer timer;
    const auto result = omega::core::scan(dataset, options);
    const double seconds = timer.seconds();
    const auto& profile = result.profile;
    const double gpu_modeled = profile.gpu.modeled_total_seconds;
    const double fpga_modeled = profile.fpga.modeled_seconds;

    const std::uint64_t digest = score_digest(result);
    if (run.key == "cpu_only") cpu_digest = digest;
    if (digest != cpu_digest) {
      failures.push_back(run.key + ": scores differ from cpu_only");
    }
    const auto& stats = profile.hetero;
    if (stats.redispatched_positions != 0) {
      failures.push_back(run.key + ": " +
                         std::to_string(stats.redispatched_positions) +
                         " positions re-dispatched without an injected fault");
    }
    std::string partitions;
    for (std::size_t p = 0; p < stats.partitions.size(); ++p) {
      const auto& partition = stats.partitions[p];
      if (!partitions.empty()) partitions += " ";
      partitions += partition.backend.substr(0, partition.backend.find(':')) +
                    "=" + std::to_string(partition.actual_positions);
      if (p == 0) continue;  // the CPU partition has no device to agree with
      const bool gpu = partition.backend.rfind("gpu-sim:", 0) == 0;
      const double accounted = gpu ? gpu_modeled : fpga_modeled;
      if (!same_seconds(partition.modeled_seconds, accounted)) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s: %s planned %.9g s, device accounted %.9g s",
                      run.key.c_str(), partition.backend.c_str(),
                      partition.modeled_seconds, accounted);
        failures.emplace_back(line);
      }
    }
    const double accelerator_makespan = std::max(gpu_modeled, fpga_modeled);
    const double cpu_busy =
        stats.partitions.empty() ? 0.0 : stats.partitions[0].measured_seconds;
    if (run.key == "gpu_sim_only") gpu_alone = gpu_modeled;
    if (run.key == "fpga_sim_only") fpga_alone = fpga_modeled;
    if (run.key == "hetero_auto") {
      hetero_auto_makespan = accelerator_makespan;
      hetero_auto_with_cpu = std::max(cpu_busy, accelerator_makespan);
    }

    table.add_row({run.key, omega::util::Table::num(seconds, 3),
                   omega::util::Table::num(gpu_modeled, 4),
                   omega::util::Table::num(fpga_modeled, 4),
                   std::to_string(stats.redispatched_positions),
                   partitions.empty() ? "-" : partitions});

    json.add_scan_profile(run.key, profile);
    auto& entry = json.results().at(run.key);
    entry.set("wall_seconds", seconds);
    entry.set("accelerator_makespan_seconds", accelerator_makespan);
    entry.set("cpu_busy_seconds", cpu_busy);
    char digest_text[17];
    std::snprintf(digest_text, sizeof(digest_text), "%016llx",
                  static_cast<unsigned long long>(digest));
    entry.set("score_digest", std::string(digest_text));
  }

  const double best_single = std::min(gpu_alone, fpga_alone);
  if (hetero_auto_makespan > best_single) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "hetero_auto accelerator makespan %.4f s exceeds the best "
                  "single accelerator's %.4f s",
                  hetero_auto_makespan, best_single);
    failures.emplace_back(line);
  }
  json.results().set("best_single_accelerator_modeled_seconds", best_single);
  json.results().set("hetero_auto_accelerator_makespan_seconds",
                     hetero_auto_makespan);
  json.results().set("hetero_auto_makespan_with_cpu_seconds",
                     hetero_auto_with_cpu);
  json.results().set("gate_failures",
                     static_cast<std::int64_t>(failures.size()));
  json.results().set("hardware_threads",
                     static_cast<std::int64_t>(hw_threads));
  table.print();
  json.write();

  std::printf("\nhetero auto accelerator makespan %.4f s vs best single "
              "accelerator %.4f s (modeled); with the CPU partition's "
              "measured busy time %.4f s (reported, not gated)\n",
              hetero_auto_makespan, best_single, hetero_auto_with_cpu);
  for (const std::string& failure : failures) {
    std::printf("FAIL: %s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}
