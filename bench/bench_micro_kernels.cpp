// google-benchmark microbenchmarks of the hot paths: the omega nested loop,
// DP matrix extension under both LD engines, position packing, the GPU
// functional kernels, and the FPGA pipeline tick.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_math.h"
#include "core/omega_search.h"
#include "hw/fpga/pipeline.h"
#include "hw/gpu/omega_kernels.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "ld_reference/engines.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"

namespace {

struct Fixture {
  omega::io::Dataset dataset;
  omega::ld::SnpMatrix snps;
  omega::core::GridPosition position;
  omega::core::DpMatrix m;

  explicit Fixture(std::size_t sites, std::size_t samples,
                   std::int64_t max_side, std::int64_t min_side)
      : dataset(omega::sim::make_dataset({.snps = sites,
                                          .samples = samples,
                                          .locus_length_bp = 1'000'000,
                                          .rho = 20.0,
                                          .seed = 31337})),
        snps(dataset) {
    omega::core::OmegaConfig config;
    config.grid_size = 1;
    config.window_unit = omega::core::WindowUnit::Snps;
    config.max_window = 2 * max_side;
    config.min_window = 2 * min_side;
    position = omega::core::build_grid(dataset, config).front();
    const omega::ld::PopcountLd engine(snps);
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
  }
};

Fixture& shared_fixture() {
  static Fixture fixture(2'000, 50, 900, 200);
  return fixture;
}

void BM_MaxOmegaSearch(benchmark::State& state) {
  auto& fixture = shared_fixture();
  std::uint64_t evaluated = 0;
  for (auto _ : state) {
    const auto result =
        omega::core::max_omega_search(fixture.m, fixture.position);
    benchmark::DoNotOptimize(result.max_omega);
    evaluated += result.evaluated;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluated));
  state.counters["Mw/s"] = benchmark::Counter(
      static_cast<double>(evaluated) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MaxOmegaSearch);

void BM_PackPosition(benchmark::State& state) {
  auto& fixture = shared_fixture();
  for (auto _ : state) {
    const auto buffers =
        omega::core::pack_position(fixture.m, fixture.position);
    benchmark::DoNotOptimize(buffers.total.data());
  }
}
BENCHMARK(BM_PackPosition);

template <typename Engine>
void extend_benchmark(benchmark::State& state) {
  auto& fixture = shared_fixture();
  const Engine engine(fixture.snps);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  std::uint64_t fetched = 0;
  for (auto _ : state) {
    omega::core::DpMatrix m;
    m.reset(0);
    m.extend(width, engine);
    fetched += m.r2_fetches();
    benchmark::DoNotOptimize(m.range_sum(0, width - 1));
  }
  state.counters["Mr2/s"] = benchmark::Counter(
      static_cast<double>(fetched) / 1e6, benchmark::Counter::kIsRate);
}

void BM_DpExtend_Popcount(benchmark::State& state) {
  extend_benchmark<omega::ld::PopcountLd>(state);
}
void BM_DpExtend_Gemm(benchmark::State& state) {
  extend_benchmark<omega::ld::GemmLd>(state);
}
BENCHMARK(BM_DpExtend_Popcount)->Arg(256)->Arg(1024);
BENCHMARK(BM_DpExtend_Gemm)->Arg(256)->Arg(1024);

void BM_GpuKernel1(benchmark::State& state) {
  auto& fixture = shared_fixture();
  static omega::par::ThreadPool pool;
  const auto buffers = omega::core::pack_position(fixture.m, fixture.position);
  std::uint64_t evaluated = 0;
  for (auto _ : state) {
    const auto result = omega::hw::gpu::run_kernel1(pool, buffers, 256);
    benchmark::DoNotOptimize(result.max_omega);
    evaluated += result.evaluated;
  }
  state.counters["Mw/s"] = benchmark::Counter(
      static_cast<double>(evaluated) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GpuKernel1);

void BM_GpuKernel2(benchmark::State& state) {
  auto& fixture = shared_fixture();
  static omega::par::ThreadPool pool;
  const auto buffers = omega::core::pack_position(fixture.m, fixture.position);
  std::uint64_t evaluated = 0;
  for (auto _ : state) {
    const auto result = omega::hw::gpu::run_kernel2(pool, buffers, 256, 13'312);
    benchmark::DoNotOptimize(result.max_omega);
    evaluated += result.evaluated;
  }
  state.counters["Mw/s"] = benchmark::Counter(
      static_cast<double>(evaluated) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GpuKernel2);

void BM_FpgaPipelineTick(benchmark::State& state) {
  omega::hw::fpga::OmegaPipeline pipeline;
  omega::hw::fpga::PipelineInput input;
  input.left_sum = 1.0f;
  input.right_sum = 0.5f;
  input.total_sum = 1.7f;
  input.l = 5;
  input.r = 7;
  input.k = static_cast<float>(omega::core::choose2(5));
  input.m = static_cast<float>(omega::core::choose2(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.tick(&input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FpgaPipelineTick);

/// Console output plus a BENCH_micro_kernels.json capture of every run
/// (per-iteration real time and the rate counters), matching the other
/// bench targets' machine-readable output.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      auto entry = omega::core::metrics::JsonValue::object()
                       .set("iterations", run.iterations)
                       .set("real_time_per_iter", run.GetAdjustedRealTime())
                       .set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [name, counter] : run.counters) {
        entry.set(name, counter.value);
      }
      results.push_back(std::pair{run.benchmark_name(), std::move(entry)});
    }
  }

  std::vector<std::pair<std::string, omega::core::metrics::JsonValue>> results;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  omega::bench::BenchJson json("micro_kernels");
  for (auto& [name, entry] : reporter.results) {
    json.set(name, std::move(entry));
  }
  json.write();
  return 0;
}
