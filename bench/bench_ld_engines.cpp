// LD-engine shootout: r2 cell throughput (cells/second, one cell = one r2
// value) of every LD engine across missing-rate x sample-count, on the same
// random dataset, with the packed engine measured once per kernel instance
// the host runs (scalar, avx2, avx512). Writes BENCH_LD.json (consumed by
// the bench_ld_diff ctest gate and docs/METRICS.md trajectory tooling).
//
// Exit code: 1 when a gate fails. With the AVX2 packed kernels available:
// packed (the instance auto picks) below 5x the byte-panel GEMM engine on
// the deepest clean config (2,048 samples, no missing data), or below
// PopcountLd in any samples x missing row (the precondition for retiring
// PopcountLd). With the AVX-512 VPOPCNTDQ kernels available: avx512 below
// kAvx512Gate x avx2 at 2,048 samples, no missing data. 0 otherwise; a
// host/binary without an instance cannot express its speedup, so each gate
// only arms where the hardware can.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/packed.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "ld_reference/gemm.h"
#include "util/prng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

omega::io::Dataset ld_dataset(std::size_t sites, std::size_t samples,
                              double missing_rate, std::uint64_t seed) {
  omega::util::Xoshiro256 rng(seed);
  std::vector<std::int64_t> positions(sites);
  std::vector<std::vector<std::uint8_t>> rows(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    positions[s] = static_cast<std::int64_t>(s + 1) * 100;
    rows[s].resize(samples);
    const double p = 0.05 + 0.9 * rng.uniform();
    for (std::size_t h = 0; h < samples; ++h) {
      if (missing_rate > 0.0 && rng.uniform() < missing_rate) {
        rows[s][h] = omega::io::Dataset::kMissing;
      } else {
        rows[s][h] = rng.uniform() < p ? 1 : 0;
      }
    }
  }
  return omega::io::Dataset(std::move(positions), std::move(rows),
                            static_cast<std::int64_t>(sites + 1) * 100);
}

/// Steady-state r2_block throughput in cells/second: one warmup pass (packs
/// panels / faults pages), then repeated full-matrix blocks until the
/// measured span exceeds `min_seconds`.
double measure_cells_per_second(const omega::ld::LdEngine& engine,
                                std::size_t sites,
                                double min_seconds = 0.15) {
  std::vector<float> out(sites * sites);
  engine.r2_block(0, sites, 0, sites, out.data(), sites);  // warmup
  std::size_t reps = 1;
  for (;;) {
    const omega::util::Timer timer;
    for (std::size_t r = 0; r < reps; ++r) {
      engine.r2_block(0, sites, 0, sites, out.data(), sites);
    }
    const double seconds = timer.seconds();
    if (seconds >= min_seconds) {
      return static_cast<double>(sites) * static_cast<double>(sites) *
             static_cast<double>(reps) / seconds;
    }
    reps *= 2;
  }
}

std::string rate_str(double cells_per_second) {
  if (cells_per_second <= 0.0) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f Mcells/s",
                cells_per_second / 1e6);
  return buffer;
}

/// Floor of the avx512 / avx2 packed ratio at 2,048 samples, no missing
/// data.
constexpr double kAvx512Gate = 1.3;

}  // namespace

int main() {
  using omega::ld::PackedIsa;
  // 390 sites split into B blocks of 256 and 134 columns, so every body
  // also runs its partial 4-column tile and partial count->r2 vector. 1,322
  // samples (the 1000 Genomes phase-3 African haplotypes) are 21 words: full
  // vectors plus a partial word vector at both widths.
  constexpr std::size_t kSites = 390;
  const std::vector<std::size_t> sample_counts = {64, 256, 1322, 2048};
  const std::vector<double> missing_rates = {0.0, 0.1};
  const PackedIsa kIsas[] = {PackedIsa::Scalar, PackedIsa::Avx2,
                             PackedIsa::Avx512};

  const bool avx2 = omega::ld::packed_isa_available(PackedIsa::Avx2);
  const bool avx512 = omega::ld::packed_isa_available(PackedIsa::Avx512);
  const char* auto_isa = omega::ld::packed_isa_name(PackedIsa::Auto);
  std::printf("LD engine shootout (%zu x %zu r2 cells per pass)\n", kSites,
              kSites);
  std::printf("packed ISA (auto): %s\n\n", auto_isa);

  omega::bench::BenchJson json("LD");
  json.results().set("sites", static_cast<std::int64_t>(kSites));
  json.results().set("packed_isa", auto_isa);

  omega::util::Table table({"samples", "missing", "naive", "popcount", "gemm",
                            "packed/scalar", "packed/avx2", "packed/avx512",
                            "packed/gemm", "packed/popcount"});
  double gate_ratio = 0.0;  // packed vs gemm at 2,048 samples, no missing
  double avx512_ratio = 0.0;  // avx512 vs avx2, same row
  // Slowest packed vs popcount ratio over every row, and that row's key.
  double popcount_min_ratio = std::numeric_limits<double>::infinity();
  std::string popcount_worst_row;
  for (const std::size_t samples : sample_counts) {
    for (const double missing : missing_rates) {
      const auto dataset =
          ld_dataset(kSites, samples, missing, 9000 + samples);
      const omega::ld::SnpMatrix snps(dataset);
      const omega::ld::NaiveLd naive(dataset);
      const omega::ld::PopcountLd popcount(snps);
      const omega::ld::GemmLd gemm(snps);

      const double naive_rate = measure_cells_per_second(naive, kSites);
      const double popcount_rate = measure_cells_per_second(popcount, kSites);
      const double gemm_rate = measure_cells_per_second(gemm, kSites);
      // Packed cells/s per instance; 0 where the host cannot run it.
      double instance_rate[3] = {0.0, 0.0, 0.0};
      double packed_rate = 0.0;  // the instance auto picks
      for (std::size_t k = 0; k < 3; ++k) {
        if (!omega::ld::packed_isa_available(kIsas[k])) continue;
        const omega::ld::PackedLd packed(snps, {}, kIsas[k]);
        instance_rate[k] = measure_cells_per_second(packed, kSites);
        if (std::string(packed.isa()) == auto_isa) {
          packed_rate = instance_rate[k];
        }
      }
      const double ratio = gemm_rate > 0.0 ? packed_rate / gemm_rate : 0.0;
      if (samples == 2048 && missing == 0.0) {
        gate_ratio = ratio;
        if (instance_rate[1] > 0.0) {
          avx512_ratio = instance_rate[2] / instance_rate[1];
        }
      }
      const double vs_popcount =
          popcount_rate > 0.0 ? packed_rate / popcount_rate : 0.0;

      char missing_str[16];
      std::snprintf(missing_str, sizeof(missing_str), "%.0f%%",
                    missing * 100.0);
      table.add_row({std::to_string(samples), missing_str,
                     rate_str(naive_rate), rate_str(popcount_rate),
                     rate_str(gemm_rate), rate_str(instance_rate[0]),
                     rate_str(instance_rate[1]), rate_str(instance_rate[2]),
                     omega::util::Table::num(ratio, 1) + "x",
                     omega::util::Table::num(vs_popcount, 1) + "x"});

      char key[48];
      std::snprintf(key, sizeof(key), "s%zu_m%02d", samples,
                    static_cast<int>(missing * 100.0));
      if (vs_popcount < popcount_min_ratio) {
        popcount_min_ratio = vs_popcount;
        popcount_worst_row = key;
      }
      auto entry = omega::core::metrics::JsonValue::object();
      entry.set("samples", static_cast<std::int64_t>(samples));
      entry.set("missing_rate", missing);
      auto engines = omega::core::metrics::JsonValue::object();
      engines.set("naive", naive_rate);
      engines.set("popcount", popcount_rate);
      engines.set("gemm", gemm_rate);
      for (std::size_t k = 0; k < 3; ++k) {
        if (instance_rate[k] > 0.0) {
          engines.set(std::string("packed_") +
                          omega::ld::packed_isa_name(kIsas[k]),
                      instance_rate[k]);
        }
      }
      engines.set("packed", packed_rate);
      entry.set("cells_per_second", std::move(engines));
      entry.set("packed_vs_gemm_ratio", ratio);
      entry.set("packed_vs_popcount_ratio", vs_popcount);
      json.results().set(key, std::move(entry));
    }
  }
  table.print();

  auto gate = omega::core::metrics::JsonValue::object();
  gate.set("armed", avx2);
  gate.set("threshold_ratio", 5.0);
  gate.set("measured_ratio", gate_ratio);
  gate.set("popcount_threshold_ratio", 1.0);
  gate.set("popcount_min_ratio", popcount_min_ratio);
  gate.set("popcount_worst_row", popcount_worst_row);
  gate.set("avx512_armed", avx512);
  gate.set("avx512_vs_avx2_threshold_ratio", kAvx512Gate);
  gate.set("avx512_vs_avx2_ratio", avx512_ratio);
  json.results().set("gate", std::move(gate));
  json.write();

  bool failed = false;
  if (avx2 && gate_ratio < 5.0) {
    std::printf("\nFAIL: packed %s is %.1fx GEMM at 2,048 samples "
                "(acceptance floor: 5x)\n", auto_isa, gate_ratio);
    failed = true;
  }
  if (avx2 && popcount_min_ratio < 1.0) {
    std::printf("\nFAIL: packed %s is %.2fx popcount in row %s "
                "(floor: 1x in every row)\n",
                auto_isa, popcount_min_ratio, popcount_worst_row.c_str());
    failed = true;
  }
  if (avx512 && avx512_ratio < kAvx512Gate) {
    std::printf("\nFAIL: packed avx512 is %.2fx avx2 at 2,048 samples "
                "(floor: %.1fx)\n", avx512_ratio, kAvx512Gate);
    failed = true;
  }
  if (failed) return 1;
  const char* disarmed = avx2 ? "" : " (gates disarmed: no AVX2)";
  std::printf("\npacked vs gemm at 2,048 samples: %.1fx%s\n", gate_ratio,
              disarmed);
  std::printf("packed vs popcount, slowest row (%s): %.1fx%s\n",
              popcount_worst_row.c_str(), popcount_min_ratio, disarmed);
  std::printf("packed avx512 vs avx2 at 2,048 samples: %.2fx%s\n",
              avx512_ratio,
              avx512 ? "" : " (gate disarmed: no AVX-512 VPOPCNTDQ)");
  return 0;
}
