// Runs the identical sweep scan on every backend — CPU, multithreaded CPU,
// the simulated GPU (Tesla K80 profile, dynamic two-kernel deployment), and
// the simulated FPGA (Alveo U200 pipeline) — verifying that all four report
// the same winning locus, and showing each accelerator's modeled device time
// next to the host wall clock.
//
//   $ ./accelerator_compare [--snps 600] [--grid 40]

#include <cstdio>
#include <memory>

#include "core/scanner.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gpu_backend.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "sim/sweep_overlay.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  omega::util::Cli cli(argc, argv);
  cli.describe("snps", "SNPs to simulate (default 600)")
      .describe("grid", "omega positions (default 40)");
  if (cli.wants_help()) {
    std::printf("%s",
                cli.help_text("accelerator_compare — backend equivalence").c_str());
    return 0;
  }
  cli.reject_unknown();

  const auto neutral = omega::sim::make_dataset(
      {.snps = cli.get_size("snps", 600),
       .samples = 50,
       .locus_length_bp = 1'000'000,
       .rho = 120.0,
       .seed = 33});
  omega::sim::SweepConfig sweep;
  sweep.sweep_position_bp = 420'000;
  sweep.carrier_fraction = 0.95;
  const auto dataset = omega::sim::apply_sweep(neutral, sweep);
  std::printf("dataset: %s, planted sweep at 420000 bp\n\n",
              dataset.shape_string().c_str());

  omega::core::ScannerOptions options;
  options.config.grid_size = cli.get_size("grid", 40);
  options.config.max_window = 250'000;
  options.config.min_window = 20'000;
  options.config.max_snps_per_side = 150;

  omega::par::ThreadPool pool;
  const auto k80 = omega::hw::tesla_k80();
  const auto alveo = omega::hw::alveo_u200();

  omega::util::Table table({"backend", "best position", "max omega",
                            "host wall (s)", "modeled device (s)"});

  // CPU reference.
  const auto cpu = omega::core::scan(dataset, options);
  table.add_row({"cpu (1 thread)", std::to_string(cpu.best().position_bp),
                 omega::util::Table::num(cpu.best().max_omega, 4),
                 omega::util::Table::num(cpu.profile.total_seconds, 3), "-"});

  // Multithreaded CPU.
  auto mt_options = options;
  mt_options.threads = 4;
  const auto mt = omega::core::scan(dataset, mt_options);
  table.add_row({"cpu (4 threads)", std::to_string(mt.best().position_bp),
                 omega::util::Table::num(mt.best().max_omega, 4),
                 omega::util::Table::num(mt.profile.total_seconds, 3), "-"});

  // Simulated GPU (caller-owned so its accounting survives the scan).
  omega::hw::gpu::GpuOmegaBackend gpu_backend(k80, pool);
  const auto gpu = omega::core::scan(
      dataset, options, [&] { return omega::core::borrow_backend(gpu_backend); });
  table.add_row({"gpu-sim (K80)", std::to_string(gpu.best().position_bp),
                 omega::util::Table::num(gpu.best().max_omega, 4),
                 omega::util::Table::num(gpu.profile.total_seconds, 3),
                 omega::util::Table::num(
                     gpu_backend.accounting().modeled_total_seconds, 6)});

  // Simulated FPGA.
  omega::hw::fpga::FpgaOmegaBackend fpga_backend(alveo);
  const auto fpga = omega::core::scan(dataset, options, [&] {
    return omega::core::borrow_backend(fpga_backend);
  });
  table.add_row({"fpga-sim (U200)", std::to_string(fpga.best().position_bp),
                 omega::util::Table::num(fpga.best().max_omega, 4),
                 omega::util::Table::num(fpga.profile.total_seconds, 3),
                 omega::util::Table::num(
                     fpga_backend.accounting().modeled_total_seconds(), 6)});
  table.print();

  const auto& gpu_acct = gpu_backend.accounting();
  std::printf("\ngpu-sim detail: %llu positions on Kernel I, %llu on Kernel "
              "II; %.2f MB moved; modeled prep/transfer/kernel = "
              "%.4f/%.4f/%.4f s\n",
              static_cast<unsigned long long>(gpu_acct.positions_kernel1),
              static_cast<unsigned long long>(gpu_acct.positions_kernel2),
              static_cast<double>(gpu_acct.bytes_moved) / 1e6,
              gpu_acct.modeled_prep_seconds, gpu_acct.modeled_transfer_seconds,
              gpu_acct.modeled_kernel_seconds);
  const auto& fpga_acct = fpga_backend.accounting();
  std::printf("fpga-sim detail: %llu omegas in hardware, %llu in software "
              "remainder; %.2f Mcycles\n",
              static_cast<unsigned long long>(fpga_acct.hw_omegas),
              static_cast<unsigned long long>(fpga_acct.sw_omegas),
              static_cast<double>(fpga_acct.modeled_cycles) / 1e6);

  const bool agree = cpu.best().position_bp == gpu.best().position_bp &&
                     cpu.best().position_bp == fpga.best().position_bp &&
                     cpu.best().position_bp == mt.best().position_bp;
  std::printf("\nall backends agree on the winning locus: %s\n",
              agree ? "YES" : "NO");
  return agree ? 0 : 1;
} catch (const omega::util::UsageError& error) {
  return omega::util::usage_error(error);
}
