#include "trace_hooks.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "core/metrics_json.h"

namespace perfbench {
namespace {

std::uint32_t this_thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number =
      next.fetch_add(1, std::memory_order_relaxed);
  return number;
}

}  // namespace

std::uint32_t SpanLog::open(const char* name) {
  const double start =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  const std::uint32_t thread = this_thread_number();
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent_;
  span.thread = thread;
  span.run = run_;
  span.start_s = start;
  spans_.push_back(span);
  return span.id;
}

void SpanLog::close(std::uint32_t id, std::uint64_t work) {
  const double end =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord& span = spans_.at(id - 1);
  span.end_s = end;
  span.work = work;
}

void SpanLog::set_parent(std::uint32_t parent, std::uint32_t run) {
  const std::lock_guard<std::mutex> lock(mutex_);
  parent_ = parent;
  run_ = run;
}

std::vector<SpanRecord> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  using omega::core::metrics::JsonValue;
  const std::vector<SpanRecord> all = spans();
  JsonValue events = JsonValue::array();
  std::set<std::uint32_t> threads;
  for (const SpanRecord& span : all) threads.insert(span.thread);
  for (const std::uint32_t thread : threads) {
    JsonValue meta = JsonValue::object();
    meta.set("ph", "M");
    meta.set("name", "thread_name");
    meta.set("pid", 1);
    meta.set("tid", static_cast<std::int64_t>(thread));
    JsonValue args = JsonValue::object();
    args.set("name", thread == 0 ? std::string("ledger-main")
                                 : "thread-" + std::to_string(thread));
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }
  for (const SpanRecord& span : all) {
    JsonValue event = JsonValue::object();
    event.set("ph", "X");
    event.set("name", span.name);
    event.set("cat", "perfbench");
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(span.thread));
    event.set("ts", span.start_s * 1e6);
    event.set("dur", std::max(0.0, span.seconds()) * 1e6);
    JsonValue args = JsonValue::object();
    args.set("id", static_cast<std::int64_t>(span.id));
    args.set("parent", static_cast<std::int64_t>(span.parent));
    args.set("run", static_cast<std::int64_t>(span.run));
    args.set("work", span.work);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  JsonValue root = JsonValue::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  omega::core::metrics::write_json_file(path, root);
}

void TracedLd::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1, float* out, std::size_t ld) const {
  ScopedSpan span(log_, "r2_block");
  inner_->r2_block(i0, i1, j0, j1, out, ld);
  span.set_work(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
}

omega::core::OmegaResult TracedOmega::max_omega(
    const omega::core::DpMatrix& m, const omega::core::GridPosition& position) {
  ScopedSpan span(log_, "max_omega");
  omega::core::OmegaResult result = inner_->max_omega(m, position);
  span.set_work(result.evaluated);
  return result;
}

std::optional<omega::io::DatasetChunk> TracedChunkReader::next() {
  ScopedSpan span(log_, "next");
  std::optional<omega::io::DatasetChunk> chunk = inner_.next();
  if (chunk) span.set_work(chunk->dataset.num_sites());
  return chunk;
}

}  // namespace perfbench
