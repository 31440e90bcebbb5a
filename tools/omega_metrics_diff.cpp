// omega_metrics_diff — bench-trajectory regression gate.
//
// Loads two or more metrics documents (omega.scan.metrics from --metrics-json
// or omega.bench BENCH_*.json), compares each later file against the first,
// prints a per-stage comparison table, and exits non-zero when a watched
// metric regresses beyond the threshold. Intended for CI, as one command
// line (wrapped here):
//
//   omega_metrics_diff baseline/BENCH_SCAN.json current/BENCH_SCAN.json
//       --threshold 0.2 --watch stages --watch counters
//
// Exit codes: 0 no regression; 1 regression detected; 2 usage or I/O error;
// 3 comparison refused (host blocks or schemas differ; --allow-cross-host
// overrides the host refusal).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics_diff.h"
#include "core/metrics_json.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegressed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitHostMismatch = 3;

void print_usage() {
  std::fprintf(
      stderr,
      "usage: omega_metrics_diff BASELINE.json CANDIDATE.json [MORE.json...]\n"
      "                          [--threshold FRACTION] [--min-seconds S]\n"
      "                          [--watch SUBSTRING]... [--allow-cross-host]\n"
      "                          [--allow-schema-drift] [--all] [--json]\n"
      "\n"
      "Compares metrics/BENCH JSON files against the first (the baseline)\n"
      "and exits non-zero when a watched metric regresses beyond the\n"
      "threshold (default 0.20 = 20%%). --allow-schema-drift diffs only\n"
      "the intersecting metric keys when schema versions differ (host\n"
      "blocks must still match unless --allow-cross-host). --json replaces\n"
      "the table with one machine-readable omega.metrics.diff document\n"
      "(per-key deltas, per-comparison verdicts, and the exit reason).\n");
}

omega::core::metrics::JsonValue load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return omega::core::metrics::JsonValue::parse(buffer.str());
}

}  // namespace

int main(int argc, char** argv) {
  // util::Cli rejects positional arguments, so this tool parses by hand.
  std::vector<std::string> files;
  omega::core::metrics::DiffOptions options;
  bool all = false;
  bool json_output = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return kExitOk;
    } else if (arg == "--threshold") {
      options.threshold = std::stod(value_of("--threshold"));
    } else if (arg == "--min-seconds") {
      options.min_seconds = std::stod(value_of("--min-seconds"));
    } else if (arg == "--watch") {
      options.watch.push_back(value_of("--watch"));
    } else if (arg == "--allow-cross-host") {
      options.allow_cross_host = true;
    } else if (arg == "--allow-schema-drift") {
      options.allow_schema_drift = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--json") {
      json_output = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      print_usage();
      return kExitUsage;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() < 2) {
    print_usage();
    return kExitUsage;
  }
  if (options.threshold < 0.0) {
    std::fprintf(stderr, "error: --threshold must be >= 0\n");
    return kExitUsage;
  }

  int exit_code = kExitOk;
  omega::core::metrics::JsonValue comparisons =
      omega::core::metrics::JsonValue::array();
  try {
    const omega::core::metrics::JsonValue baseline = load(files[0]);
    for (std::size_t i = 1; i < files.size(); ++i) {
      const omega::core::metrics::JsonValue candidate = load(files[i]);
      const omega::core::metrics::DiffReport report =
          omega::core::metrics::diff_metrics(baseline, candidate, options);
      if (json_output) {
        auto entry = omega::core::metrics::render_diff_json(report, all);
        entry.set("candidate_file", files[i]);
        comparisons.push_back(std::move(entry));
      } else {
        std::printf("== %s vs %s ==\n", files[0].c_str(), files[i].c_str());
        std::fputs(
            omega::core::metrics::render_diff_table(report, all).c_str(),
            stdout);
      }
      if (!report.error.empty()) {
        exit_code = std::max(exit_code, kExitHostMismatch);
        continue;
      }
      if (report.regressed) {
        if (!json_output) {
          std::printf("%zu watched metric(s) regressed beyond %.0f%%\n",
                      report.regressions(), options.threshold * 100.0);
        }
        exit_code = std::max(exit_code, kExitRegressed);
      } else if (!json_output) {
        std::printf("no regression beyond %.0f%%\n",
                    options.threshold * 100.0);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }
  if (json_output) {
    // One top-level document wrapping every comparison so automation parses
    // a single object regardless of how many candidates were given. The
    // exit reason mirrors the process exit code.
    omega::core::metrics::JsonValue doc =
        omega::core::metrics::JsonValue::object();
    doc.set("schema", "omega.metrics.diff");
    doc.set("schema_version", 1);
    doc.set("baseline_file", files[0]);
    doc.set("threshold", options.threshold);
    doc.set("comparisons", std::move(comparisons));
    doc.set("exit_code", exit_code);
    doc.set("exit_reason", exit_code == kExitOk          ? "ok"
                           : exit_code == kExitRegressed ? "regressed"
                                                         : "refused");
    std::printf("%s\n", doc.dump().c_str());
  }
  return exit_code;
}
