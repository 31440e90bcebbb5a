// Tests for the OmegaPlus-compatible Report/Info writers.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/report.h"
#include "core/scanner.h"
#include "sim/dataset_factory.h"

namespace {

/// (position, omega) rows of a Report file, read the way downstream scripts
/// read it: whitespace-separated pairs, one per line, to the end.
std::vector<std::pair<std::int64_t, double>> report_rows(std::istream& in) {
  std::vector<std::pair<std::int64_t, double>> rows;
  std::int64_t position = 0;
  double omega_value = 0.0;
  while (in >> position >> omega_value) rows.emplace_back(position, omega_value);
  EXPECT_TRUE(in.eof()) << "report has a malformed row";
  return rows;
}

omega::core::ScanResult small_scan(const omega::io::Dataset& dataset,
                                   omega::core::ScannerOptions& options) {
  options.config.grid_size = 15;
  options.config.max_window = 250'000;
  options.config.min_window = 10'000;
  return omega::core::scan(dataset, options);
}

TEST(Report, WriteAndReadBack) {
  const auto dataset = omega::sim::make_dataset(
      {.snps = 120, .samples = 24, .locus_length_bp = 1'000'000, .rho = 10.0, .seed = 3});
  omega::core::ScannerOptions options;
  const auto result = small_scan(dataset, options);

  std::stringstream buffer;
  omega::core::write_report(buffer, result);
  const auto rows = report_rows(buffer);
  ASSERT_EQ(rows.size(), result.scores.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, result.scores[i].position_bp);
    EXPECT_NEAR(rows[i].second,
                result.scores[i].valid ? result.scores[i].max_omega : 0.0,
                1e-5 * (1.0 + result.scores[i].max_omega));
  }
}

TEST(Report, InfoContainsKeyFields) {
  const auto dataset = omega::sim::make_dataset(
      {.snps = 100, .samples = 20, .locus_length_bp = 500'000, .rho = 5.0, .seed = 4});
  omega::core::ScannerOptions options;
  const auto result = small_scan(dataset, options);

  std::ostringstream info;
  omega::core::write_info(info, "unit-test", dataset.shape_string(),
                          dataset.has_missing(), options, result, "cpu");
  const std::string text = info.str();
  EXPECT_NE(text.find("run: unit-test"), std::string::npos);
  EXPECT_NE(text.find("20 samples x 100 SNPs"), std::string::npos);
  EXPECT_NE(text.find("Grid size:    15"), std::string::npos);
  EXPECT_NE(text.find("LD engine:    packed"), std::string::npos);
  EXPECT_NE(text.find("Top windows:"), std::string::npos);
}

TEST(Report, RunFilesLandOnDisk) {
  const auto dataset = omega::sim::make_dataset(
      {.snps = 90, .samples = 20, .locus_length_bp = 500'000, .rho = 5.0, .seed = 5});
  omega::core::ScannerOptions options;
  const auto result = small_scan(dataset, options);

  const std::string directory =
      (std::filesystem::temp_directory_path() / "omega_report_test").string();
  std::filesystem::create_directories(directory);
  const auto report_path = omega::core::write_run_files(
      directory, "disk", dataset, options, result, "cpu");
  EXPECT_TRUE(std::filesystem::exists(report_path));
  EXPECT_TRUE(std::filesystem::exists(directory + "/OmegaPlus_Info.disk"));

  std::ifstream report(report_path);
  const auto rows = report_rows(report);
  EXPECT_EQ(rows.size(), result.scores.size());
  std::filesystem::remove_all(directory);
}

}  // namespace
