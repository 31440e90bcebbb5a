#include "core/metrics_json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/trace.h"

namespace omega::core::metrics {

// ---------------------------------------------------------------------------
// JsonValue: document model
// ---------------------------------------------------------------------------

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::Object) throw std::logic_error("JsonValue::set: not an object");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::out_of_range("JsonValue::at: no member '" + std::string(key) + "'");
  }
  return *value;
}

JsonValue& JsonValue::at(std::string_view key) {
  return const_cast<JsonValue&>(std::as_const(*this).at(key));
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::Array) throw std::logic_error("JsonValue::push_back: not an array");
  array_.push_back(std::move(value));
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw std::logic_error("JsonValue: not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Int) throw std::logic_error("JsonValue: not an integer");
  return int_;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::Int || int_ < 0) {
    throw std::logic_error("JsonValue: not a non-negative integer");
  }
  return static_cast<std::uint64_t>(int_);
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Double) return double_;
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  throw std::logic_error("JsonValue: not a number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) throw std::logic_error("JsonValue: not a string");
  return string_;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null:
      return true;
    case Kind::Bool:
      return bool_ == other.bool_;
    case Kind::Int:
      return int_ == other.int_;
    case Kind::Double:
      return double_ == other.double_;
    case Kind::String:
      return string_ == other.string_;
    case Kind::Array:
      return array_ == other.array_;
    case Kind::Object:
      return object_ == other.object_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void escape_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  std::string text = buffer;
  // Keep the Double kind on round-trip: force a decimal point or exponent.
  if (text.find_first_of(".eE") == std::string::npos &&
      text.find_first_of("nN") == std::string::npos) {  // skip nan/inf
    text += ".0";
  }
  out += text;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::Int:
      out += std::to_string(int_);
      return;
    case Kind::Double:
      append_double(out, double_);
      return;
    case Kind::String:
      escape_string(out, string_);
      return;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_string(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > 128) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    if (c == '{') {
      value = parse_object();
    } else if (c == '[') {
      value = parse_array();
    } else if (c == '"') {
      value = JsonValue(parse_string());
    } else if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      value = JsonValue(true);
    } else if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      value = JsonValue(false);
    } else if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      value = JsonValue();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      value = parse_number();
    } else {
      fail("unexpected character");
    }
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return object;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return array;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are not produced by our
          // serializer, which only \u-escapes control characters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    if (!is_double) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return JsonValue(value);
      }
      // Integer overflow: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("bad number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_json_file(const std::string& path, const JsonValue& value) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << value.dump() << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

// ---------------------------------------------------------------------------
// Schema builders
// ---------------------------------------------------------------------------

JsonValue scan_metrics(const std::string& run_name, const ScanProfile& profile) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kScanSchema);
  doc.set("schema_version", kSchemaVersion);
  doc.set("name", run_name);
  doc.set("backend", profile.omega_backend);
  doc.set("ld_backend", profile.ld_backend);
  doc.set("total_seconds", profile.total_seconds);

  JsonValue stages = JsonValue::object();
  stages.set("ld_reset_seconds", profile.stages.ld_reset_seconds);
  stages.set("ld_relocate_seconds", profile.stages.ld_relocate_seconds);
  stages.set("ld_extend_seconds", profile.stages.ld_extend_seconds);
  stages.set("omega_search_seconds", profile.stages.omega_search_seconds);
  stages.set("dispatch_seconds", profile.stages.dispatch_seconds);
  stages.set("ld_seconds", profile.ld_seconds);
  stages.set("omega_seconds", profile.omega_seconds);
  doc.set("stages", std::move(stages));

  JsonValue counters = JsonValue::object();
  counters.set("positions_scanned", profile.positions_scanned);
  counters.set("omega_evaluations", profile.omega_evaluations);
  counters.set("r2_fetched", profile.r2_fetched);
  counters.set("omega_throughput_per_s", profile.omega_throughput());
  counters.set("ld_throughput_per_s", profile.ld_throughput());
  doc.set("counters", std::move(counters));

  JsonValue relocation = JsonValue::object();
  relocation.set("resets", profile.relocation.resets);
  relocation.set("relocations", profile.relocation.relocations);
  relocation.set("cells_reused", profile.relocation.cells_reused);
  relocation.set("cells_recomputed", profile.relocation.cells_recomputed);
  doc.set("relocation", std::move(relocation));

  JsonValue gpu = JsonValue::object();
  gpu.set("kernel1_launches", profile.gpu.kernel1_launches);
  gpu.set("kernel2_launches", profile.gpu.kernel2_launches);
  gpu.set("kernel1_omegas", profile.gpu.kernel1_omegas);
  gpu.set("kernel2_omegas", profile.gpu.kernel2_omegas);
  gpu.set("modeled_kernel_seconds", profile.gpu.modeled_kernel_seconds);
  gpu.set("modeled_prep_seconds", profile.gpu.modeled_prep_seconds);
  gpu.set("modeled_transfer_seconds", profile.gpu.modeled_transfer_seconds);
  gpu.set("modeled_total_seconds", profile.gpu.modeled_total_seconds);
  gpu.set("bytes_moved", profile.gpu.bytes_moved);
  doc.set("gpu", std::move(gpu));

  JsonValue fpga = JsonValue::object();
  fpga.set("pipeline_cycles", profile.fpga.pipeline_cycles);
  fpga.set("stall_cycles", profile.fpga.stall_cycles);
  fpga.set("hw_omegas", profile.fpga.hw_omegas);
  fpga.set("sw_omegas", profile.fpga.sw_omegas);
  fpga.set("modeled_seconds", profile.fpga.modeled_seconds);
  doc.set("fpga", std::move(fpga));

  // v3: fault injection + recovery accounting (docs/ROBUSTNESS.md).
  JsonValue faults = JsonValue::object();
  faults.set("injected", profile.faults.faults_injected);
  faults.set("injected_kernel_launch", profile.faults.injected_kernel_launch);
  faults.set("injected_timeout", profile.faults.injected_timeout);
  faults.set("injected_nan", profile.faults.injected_nan);
  faults.set("injected_device_lost", profile.faults.injected_device_lost);
  faults.set("errors_caught", profile.faults.errors_caught);
  faults.set("invalid_results", profile.faults.invalid_results);
  faults.set("retries", profile.faults.retries);
  faults.set("quarantined_positions", profile.faults.quarantined_positions);
  faults.set("degradations", profile.faults.degradations);
  faults.set("backoff_virtual_seconds",
             profile.faults.backoff_virtual_seconds);
  doc.set("faults", std::move(faults));

  // v4: CPU omega-kernel dispatch decision + per-body evaluation counts
  // (docs/METRICS.md "kernel" block); v13 adds the avx512 pair, v14
  // candidates_scored.
  JsonValue kernel = JsonValue::object();
  kernel.set("requested", profile.kernel.requested);
  kernel.set("selected", profile.kernel.selected);
  kernel.set("avx2_supported", profile.kernel.avx2_supported);
  kernel.set("avx512_supported", profile.kernel.avx512_supported);
  kernel.set("positions", profile.kernel.positions);
  kernel.set("scalar_evaluations", profile.kernel.scalar_evaluations);
  kernel.set("portable_evaluations", profile.kernel.portable_evaluations);
  kernel.set("avx2_evaluations", profile.kernel.avx2_evaluations);
  kernel.set("avx512_evaluations", profile.kernel.avx512_evaluations);
  kernel.set("candidates_scored", profile.kernel.candidates_scored);
  doc.set("kernel", std::move(kernel));

  // v5: streaming chunk-pipeline accounting (docs/STREAMING.md); all-zero
  // for in-memory scans.
  JsonValue stream = JsonValue::object();
  stream.set("chunks", profile.stream.chunks);
  stream.set("chunk_sites_target", profile.stream.chunk_sites_target);
  stream.set("total_sites", profile.stream.total_sites);
  stream.set("overlap_sites", profile.stream.overlap_sites);
  stream.set("peak_resident_sites", profile.stream.peak_resident_sites);
  stream.set("seam_carryovers", profile.stream.seam_carryovers);
  stream.set("failed_chunks", profile.stream.failed_chunks);
  stream.set("io_seconds", profile.stream.io_seconds);
  stream.set("io_stall_seconds", profile.stream.io_stall_seconds);
  stream.set("compute_seconds", profile.stream.compute_seconds);
  stream.set("io_overlap_ratio", profile.stream.io_overlap_ratio());
  doc.set("stream", std::move(stream));

  // v7: work-stealing scheduler accounting (docs/PERF.md "Parallel scan");
  // workers == 1 and spans == 0 for serial scans.
  JsonValue sched = JsonValue::object();
  sched.set("requested_threads", profile.sched.requested_threads);
  sched.set("workers", profile.sched.workers);
  sched.set("spans", profile.sched.spans);
  sched.set("steals", profile.sched.steals);
  sched.set("active_workers", profile.sched.active_workers());
  JsonValue workers_detail = JsonValue::array();
  for (const SchedWorkerStats& worker : profile.sched.workers_detail) {
    JsonValue entry = JsonValue::object();
    entry.set("spans", worker.spans);
    entry.set("steals", worker.steals);
    entry.set("positions", worker.positions);
    entry.set("busy_seconds", worker.busy_seconds);
    workers_detail.push_back(std::move(entry));
  }
  sched.set("workers_detail", std::move(workers_detail));
  doc.set("sched", std::move(sched));

  // v8: crash-safe runtime accounting (docs/ROBUSTNESS.md "Checkpoint,
  // cancellation, and deadlines"); defaults describe an uninterrupted,
  // checkpoint-free run.
  JsonValue runtime = JsonValue::object();
  runtime.set("partial", profile.runtime.partial);
  runtime.set("cancelled", profile.runtime.cancelled);
  runtime.set("cancel_reason", profile.runtime.cancel_reason);
  runtime.set("deadline_seconds", profile.runtime.deadline_seconds);
  runtime.set("deadline_outcome", profile.runtime.deadline_outcome);
  runtime.set("cancel_latency_seconds",
              profile.runtime.cancel_latency_seconds);
  runtime.set("positions_skipped", profile.runtime.positions_skipped);
  runtime.set("checkpoints_written", profile.runtime.checkpoints_written);
  runtime.set("checkpoint_bytes", profile.runtime.checkpoint_bytes);
  runtime.set("resume_validations", profile.runtime.resume_validations);
  runtime.set("chunks_resumed", profile.runtime.chunks_resumed);
  doc.set("runtime", std::move(runtime));

  // v9: LD-engine accounting (docs/PERF.md "LD engines"): the resolved
  // engine + microkernel ISA, the packed engine's panel-cache hit/miss
  // counters, and the pack/kernel time split.
  JsonValue ld = JsonValue::object();
  ld.set("requested", profile.ld.requested);
  ld.set("engine", profile.ld.engine);
  ld.set("isa", profile.ld.isa);
  ld.set("panel_packs", profile.ld.panel_packs);
  ld.set("panel_hits", profile.ld.panel_hits);
  ld.set("pack_seconds", profile.ld.pack_seconds);
  ld.set("kernel_seconds", profile.ld.kernel_seconds);
  doc.set("ld", std::move(ld));

  // v10: heterogeneous co-scheduler accounting (docs/PERF.md "Heterogeneous
  // co-scheduling"); disabled/all-zero unless the scan ran --backend=hetero.
  // v15 drops straggler_spans with the wall-clock straggler deadline.
  JsonValue hetero = JsonValue::object();
  hetero.set("enabled", profile.hetero.enabled);
  hetero.set("split", profile.hetero.split);
  hetero.set("plans", profile.hetero.plans);
  hetero.set("redispatched_spans", profile.hetero.redispatched_spans);
  hetero.set("redispatched_positions", profile.hetero.redispatched_positions);
  hetero.set("faulted_spans", profile.hetero.faulted_spans);
  JsonValue partitions = JsonValue::array();
  for (const HeteroPartitionStats& partition : profile.hetero.partitions) {
    JsonValue entry = JsonValue::object();
    entry.set("backend", partition.backend);
    entry.set("weight", partition.weight);
    entry.set("planned_positions", partition.planned_positions);
    entry.set("actual_positions", partition.actual_positions);
    entry.set("spans", partition.spans);
    entry.set("modeled_seconds", partition.modeled_seconds);
    entry.set("measured_seconds", partition.measured_seconds);
    // v11: measured-throughput EWMA next to the model's prediction.
    entry.set("measured_rate_per_s", partition.measured_rate_per_s);
    entry.set("rate_observations", partition.rate_observations);
    partitions.push_back(std::move(entry));
  }
  hetero.set("partitions", std::move(partitions));
  doc.set("hetero", std::move(hetero));

  // v11: hardware-counter per-stage profile (docs/OBSERVABILITY.md
  // "Hardware counters"); disabled with an empty stage list unless the scan
  // ran with util::perf enabled (CLI --perf-counters).
  JsonValue perf = JsonValue::object();
  perf.set("enabled", profile.perf.enabled);
  perf.set("source", profile.perf.source);
  // v12: under the clock-only fallback the hardware counts were never
  // measured, so they and their ratios are null rather than 0.
  const bool measured = profile.perf.source != "fallback";
  const auto hardware = [measured](auto value) {
    return measured ? JsonValue(value) : JsonValue();
  };
  JsonValue perf_stages = JsonValue::array();
  for (const PerfStageStats& stage : profile.perf.stages) {
    JsonValue entry = JsonValue::object();
    entry.set("stage", stage.stage);
    entry.set("scopes", stage.scopes);
    entry.set("cycles", hardware(stage.cycles));
    entry.set("instructions", hardware(stage.instructions));
    entry.set("cache_misses", hardware(stage.cache_misses));
    entry.set("branch_misses", hardware(stage.branch_misses));
    entry.set("task_clock_seconds", stage.task_clock_seconds);
    entry.set("ipc", hardware(stage.ipc()));
    entry.set("cache_mpki", hardware(stage.cache_mpki()));
    entry.set("branch_mpki", hardware(stage.branch_mpki()));
    perf_stages.push_back(std::move(entry));
  }
  perf.set("stages", std::move(perf_stages));
  doc.set("perf", std::move(perf));

  // v6: distributional telemetry (docs/OBSERVABILITY.md) — the scan's own
  // telemetry scope.
  doc.set("telemetry", telemetry_json(profile.telemetry));
  return doc;
}

JsonValue trace_to_json() {
  JsonValue events = JsonValue::array();
  for (const auto& event : util::trace::take_snapshot().events) {
    JsonValue entry = JsonValue::object();
    entry.set("name", event.name);
    entry.set("thread", static_cast<std::int64_t>(event.thread_id));
    entry.set("start_s", event.start_s);
    entry.set("duration_s", event.duration_s);
    events.push_back(std::move(entry));
  }
  return events;
}

JsonValue telemetry_json(const util::telemetry::RegistrySnapshot& snapshot) {
  JsonValue block = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, value);
  }
  block.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.set(name, value);
  }
  block.set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : snapshot.histograms) {
    JsonValue entry = JsonValue::object();
    entry.set("base", hist.base);
    entry.set("count", hist.count);
    entry.set("sum", hist.sum);
    entry.set("min", hist.min);
    entry.set("max", hist.max);
    entry.set("mean", hist.mean());
    entry.set("p50", hist.quantile(0.50));
    entry.set("p90", hist.quantile(0.90));
    entry.set("p99", hist.quantile(0.99));
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i < util::telemetry::kHistogramBuckets; ++i) {
      if (hist.buckets[i] == 0) continue;
      JsonValue bucket = JsonValue::object();
      bucket.set("le", hist.bucket_upper_bound(i));
      bucket.set("count", hist.buckets[i]);
      buckets.push_back(std::move(bucket));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  block.set("histograms", std::move(histograms));
  return block;
}

util::telemetry::RegistrySnapshot telemetry_from_json(const JsonValue& block) {
  util::telemetry::RegistrySnapshot snapshot;
  for (const auto& [name, value] : block.at("counters").members()) {
    snapshot.counters.emplace_back(name, value.as_uint());
  }
  for (const auto& [name, value] : block.at("gauges").members()) {
    snapshot.gauges.emplace_back(name, value.as_double());
  }
  for (const auto& [name, entry] : block.at("histograms").members()) {
    util::telemetry::HistogramSnapshot hist;
    hist.base = entry.at("base").as_double();
    hist.count = entry.at("count").as_uint();
    hist.sum = entry.at("sum").as_double();
    hist.min = entry.at("min").as_double();
    hist.max = entry.at("max").as_double();
    for (const auto& bucket : entry.at("buckets").items()) {
      const double le = bucket.at("le").as_double();
      // %.17g round-trips bucket bounds exactly, so the equality probe
      // normally hits; the nearest-bound fallback guards against a document
      // produced by a different printf implementation.
      std::size_t index = util::telemetry::kHistogramBuckets;
      double best_distance = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < util::telemetry::kHistogramBuckets; ++i) {
        const double bound = hist.bucket_upper_bound(i);
        if (bound == le) {
          index = i;
          break;
        }
        const double distance = std::abs(bound - le);
        if (distance < best_distance) {
          best_distance = distance;
          index = i;
        }
      }
      hist.buckets[index] += bucket.at("count").as_uint();
    }
    snapshot.histograms.emplace_back(name, hist);
  }
  return snapshot;
}

JsonValue chrome_trace(const util::trace::TraceSnapshot& snapshot) {
  std::vector<util::trace::TraceEvent> sorted = snapshot.events;
  std::sort(sorted.begin(), sorted.end(),
            [](const util::trace::TraceEvent& a,
               const util::trace::TraceEvent& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.thread_id < b.thread_id;
            });

  JsonValue events = JsonValue::array();
  for (std::uint32_t tid = 0; tid < snapshot.num_threads; ++tid) {
    JsonValue meta = JsonValue::object();
    meta.set("ph", "M");
    meta.set("name", "thread_name");
    meta.set("pid", 1);
    meta.set("tid", static_cast<std::int64_t>(tid));
    JsonValue meta_args = JsonValue::object();
    meta_args.set("name", tid == 0 ? std::string("scan-main")
                                   : "worker-" + std::to_string(tid));
    meta.set("args", std::move(meta_args));
    events.push_back(std::move(meta));
  }
  for (const util::trace::TraceEvent& event : sorted) {
    JsonValue entry = JsonValue::object();
    if (event.duration_s > 0.0) {
      entry.set("ph", "X");
    } else {
      entry.set("ph", "i");
      entry.set("s", "t");  // thread-scoped instant
    }
    entry.set("name", event.name);
    entry.set("pid", 1);
    entry.set("tid", static_cast<std::int64_t>(event.thread_id));
    entry.set("ts", event.start_s * 1e6);
    if (event.duration_s > 0.0) entry.set("dur", event.duration_s * 1e6);
    events.push_back(std::move(entry));
  }

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  JsonValue other = JsonValue::object();
  other.set("recorded", snapshot.recorded);
  other.set("dropped", snapshot.dropped);
  other.set("num_threads", static_cast<std::int64_t>(snapshot.num_threads));
  doc.set("otherData", std::move(other));
  return doc;
}

JsonValue chrome_trace() { return chrome_trace(util::trace::take_snapshot()); }

}  // namespace omega::core::metrics
