#include "util/cli.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace omega::util {

int usage_error(const UsageError& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      wants_help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw UsageError("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself an option; otherwise
    // a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

Cli& Cli::describe(const std::string& name, const std::string& help) {
  described_.emplace_back(name, help);
  return *this;
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::logic_error&) {
    throw UsageError("--" + name + " expects an integer, got '" + it->second +
                     "'");
  }
}

std::size_t Cli::get_size(const std::string& name, std::size_t fallback) const {
  const std::int64_t value =
      get_int(name, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw UsageError("--" + name + " must be >= 0, got " +
                     std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::logic_error&) {
    throw UsageError("--" + name + " expects a number, got '" + it->second +
                     "'");
  }
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Cli::help_text(const std::string& program_summary) const {
  std::ostringstream out;
  out << program_summary << "\n\nOptions:\n";
  for (const auto& [name, help] : described_) {
    out << "  --" << name << "\n      " << help << "\n";
  }
  return out.str();
}

void Cli::reject_unknown() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    const bool known = std::any_of(
        described_.begin(), described_.end(),
        [&](const auto& entry) { return entry.first == name; });
    if (!known) {
      throw UsageError("unknown option --" + name + " (see --help)");
    }
  }
}

}  // namespace omega::util
