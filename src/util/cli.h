#pragma once
// Minimal command-line parser for the bench/example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag` forms; unknown
// arguments raise, so typos in sweep scripts fail loudly.
//
// Every problem with the command line itself — a positional argument, an
// unknown option, a value of the wrong kind — throws UsageError. The
// programs catch it around main (usage_error) and exit 2 with one line on
// stderr.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace omega::util {

class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Prints "error: <what>" to stderr and returns exit status 2.
int usage_error(const UsageError& error);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Registers an option with a help line so `--help` output is accurate.
  /// Returns *this to allow chaining during setup.
  Cli& describe(const std::string& name, const std::string& help);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int for counts and sizes: a negative value is a UsageError.
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// True when `--help` was passed; callers should print `help_text` and exit.
  [[nodiscard]] bool wants_help() const { return wants_help_; }
  [[nodiscard]] std::string help_text(const std::string& program_summary) const;

  /// Throws UsageError if any parsed option was never described.
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> described_;
  bool wants_help_ = false;
};

}  // namespace omega::util
