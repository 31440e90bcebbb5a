#pragma once
// Structured parse failures for the text readers (ms / VCF / FASTA) plus
// non-throwing integer helpers. The readers historically leaked raw
// std::stoll / std::stoull exceptions (std::invalid_argument,
// std::out_of_range) with no hint of which file, line, or field was at
// fault; ParseError carries that context and still derives from
// std::runtime_error so existing catch sites keep working.

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace omega::io {

class ParseError : public std::runtime_error {
 public:
  /// `format` is the reader name ("ms", "vcf", ...); `line` is 1-based
  /// (0 = unknown); `reason` describes the offending field or value.
  ParseError(const std::string& format, std::size_t line,
             const std::string& reason)
      : std::runtime_error(format +
                           (line > 0 ? " (line " + std::to_string(line) + ")"
                                     : std::string()) +
                           ": " + reason),
        format_(format),
        line_(line),
        reason_(reason) {}

  [[nodiscard]] const std::string& format() const noexcept { return format_; }
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  std::string format_;
  std::size_t line_;
  std::string reason_;
};

/// Parses the whole of `text` as a decimal integer. Returns nullopt on
/// empty input, stray characters, or overflow — never throws, unlike
/// std::stoll. Leading '+' / '-' handled by from_chars ('-' only for the
/// signed overload).
inline std::optional<std::int64_t> try_parse_int64(std::string_view text) {
  std::int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

inline std::optional<std::uint64_t> try_parse_uint64(std::string_view text) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

/// Throwing variant for contexts where a bad value must abort the parse:
/// wraps try_parse_uint64 and raises ParseError naming the field.
inline std::uint64_t parse_uint64(std::string_view text, const char* format,
                                  std::size_t line, const char* field) {
  if (const auto value = try_parse_uint64(text)) return *value;
  throw ParseError(format, line,
                   std::string(field) + ": invalid non-negative integer '" +
                       std::string(text) + "'");
}

}  // namespace omega::io
