#pragma once
// Fixed-width console table writer. The bench binaries print paper-style
// tables (Table I/III/IV rows, figure series) through this so that output is
// diffable across runs.

#include <string>
#include <vector>

namespace omega::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds one row; the cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats a double with the given precision.
  static std::string num(double value, int precision = 2);

  /// Renders with column alignment and a header rule.
  [[nodiscard]] std::string str() const;
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace omega::util
