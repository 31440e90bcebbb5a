#pragma once
// Lightweight trace-event API for the scan observability layer: scoped spans
// (name + thread id + start/duration) recorded into a fixed-capacity ring
// buffer. Tracing is off by default and zero-cost when disabled — a Span
// constructor performs one relaxed atomic load and nothing else. When the
// ring wraps, the oldest events are overwritten and the drop count is
// reported, so tracing never grows memory unboundedly inside long scans.
//
// Span names must be string literals (or otherwise outlive the registry):
// events store the pointer, not a copy, to keep the enabled-path cheap.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace omega::util::trace {

struct TraceEvent {
  const char* name = "";
  std::uint32_t thread_id = 0;  // small sequential id, stable per thread
  double start_s = 0.0;         // seconds since enable()
  double duration_s = 0.0;
};

namespace detail {

struct Registry {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  std::vector<TraceEvent> ring;
  std::size_t capacity = 0;
  std::size_t next = 0;         // ring cursor
  std::uint64_t recorded = 0;   // lifetime count since enable()
  std::chrono::steady_clock::time_point epoch{};
};

inline Registry& registry() {
  static Registry instance;
  return instance;
}

inline std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next_id{0};
  thread_local const std::uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

[[nodiscard]] inline bool enabled() noexcept {
  return detail::registry().enabled.load(std::memory_order_relaxed);
}

/// Starts a fresh trace session with room for `capacity` events.
inline void enable(std::size_t capacity = 65'536) {
  auto& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.ring.clear();
  r.ring.reserve(capacity);
  r.capacity = capacity;
  r.next = 0;
  r.recorded = 0;
  r.epoch = std::chrono::steady_clock::now();
  r.enabled.store(true, std::memory_order_relaxed);
}

inline void disable() {
  detail::registry().enabled.store(false, std::memory_order_relaxed);
}

inline void record(const char* name, double start_s, double duration_s) {
  auto& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (r.capacity == 0) return;
  const TraceEvent event{name, detail::thread_id(), start_s, duration_s};
  if (r.ring.size() < r.capacity) {
    r.ring.push_back(event);
  } else {
    r.ring[r.next] = event;  // wrap: overwrite oldest
  }
  r.next = (r.next + 1) % r.capacity;
  ++r.recorded;
}

/// Copy of the buffered events (unordered across threads; sort by start_s if
/// chronology matters). Thread ids here are the raw process-lifetime ids —
/// use take_snapshot() for exporter-facing, session-relative ids.
[[nodiscard]] inline std::vector<TraceEvent> snapshot() {
  auto& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.ring;
}

/// Exporter-facing view of the current session: buffered events with thread
/// ids remapped to a dense 0-based range, plus ring-overflow accounting.
struct TraceSnapshot {
  std::vector<TraceEvent> events;  // thread_id remapped: 0..num_threads-1
  std::uint64_t recorded = 0;      // lifetime count since enable()
  std::uint64_t dropped = 0;       // events overwritten by ring wraparound
  std::uint32_t num_threads = 0;   // distinct threads among buffered events
};

/// Snapshot with session-relative thread ids. detail::thread_id() hands out
/// ids once per thread for the process lifetime, so a second enable() session
/// would otherwise start its tracks at a nonzero id; remapping at snapshot
/// time (raw ids sorted ascending -> 0,1,2,...) keeps every exported session's
/// tracks numbered from 0 while preserving relative thread order.
[[nodiscard]] inline TraceSnapshot take_snapshot() {
  TraceSnapshot snap;
  {
    auto& r = detail::registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    snap.events = r.ring;
    snap.recorded = r.recorded;
    snap.dropped = r.recorded - r.ring.size();
  }
  std::vector<std::uint32_t> raw_ids;
  raw_ids.reserve(8);
  for (const TraceEvent& event : snap.events) {
    bool seen = false;
    for (std::uint32_t id : raw_ids) {
      if (id == event.thread_id) {
        seen = true;
        break;
      }
    }
    if (!seen) raw_ids.push_back(event.thread_id);
  }
  std::sort(raw_ids.begin(), raw_ids.end());
  for (TraceEvent& event : snap.events) {
    const auto it =
        std::lower_bound(raw_ids.begin(), raw_ids.end(), event.thread_id);
    event.thread_id = static_cast<std::uint32_t>(it - raw_ids.begin());
  }
  snap.num_threads = static_cast<std::uint32_t>(raw_ids.size());
  return snap;
}

/// Events recorded since enable(); snapshot().size() is min(this, capacity).
[[nodiscard]] inline std::uint64_t recorded() {
  auto& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.recorded;
}

/// Zero-duration point event ("instant"), for actions whose occurrence
/// matters more than their duration — retry decisions, quarantines, backend
/// degradations. No-op when tracing is disabled.
inline void instant(const char* name) {
  if (!enabled()) return;
  auto& r = detail::registry();
  const double start_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - r.epoch)
                             .count();
  record(name, start_s, 0.0);
}

/// Records a span that ran from `start` to `end` (steady clock). Dropped when
/// tracing is off, so a span that straddles disable() is lost.
inline void record_span(const char* name,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  const auto& r = detail::registry();
  record(name, std::chrono::duration<double>(start - r.epoch).count(),
         std::chrono::duration<double>(end - start).count());
}

/// RAII scoped span for regions that are not scan stages (the stages use
/// util/probe.h, which feeds the same ring). With tracing disabled the
/// constructor is a single relaxed load and the destructor a branch on a
/// bool.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
      active_ = true;
    }
  }
  ~Span() {
    if (active_) record_span(name_, start_, std::chrono::steady_clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = "";
  std::chrono::steady_clock::time_point start_{};
  bool active_ = false;
};

}  // namespace omega::util::trace
