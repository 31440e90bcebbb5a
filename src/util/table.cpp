#include "util/table.h"

#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace omega::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("table row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Table::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << cells[c];
      if (c + 1 < cells.size()) {
        out << std::string(width[c] - cells[c].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < width.size(); ++c) rule += width[c] + (c + 1 < width.size() ? 2 : 0);
  out << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void Table::print() const { std::cout << str(); }

}  // namespace omega::util
