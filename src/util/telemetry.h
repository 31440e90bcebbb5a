#pragma once
// Process-wide metrics registry for the scan telemetry subsystem: named
// counters, gauges, and log-bucketed latency histograms with a lock-free
// record path, plus per-scan Scopes that mirror it. The aggregate
// ScanProfile answers "how much total" and is derived from a scan's Scope;
// this layer answers the distributional questions operators actually ask —
// tail latency of chunk fetches, retry-backoff spread, pool queue depth —
// and feeds the metrics schema "telemetry" block plus the Prometheus-style
// text exposition (docs/OBSERVABILITY.md).
//
// Usage contract:
//   * counter()/gauge()/histogram() resolve a name to a metric under a mutex;
//     hot paths resolve once (constructor member or function-local static)
//     and then touch only atomics.
//   * Registered metrics are NEVER deallocated — reset() zeroes values in
//     place — so cached references and pointers stay valid for the process
//     lifetime, including across reset() calls from tests.
//   * Every record made on a thread inside a Scope also lands in the scope's
//     mirror of the metric; once the mirror exists that stays lock-free.
//   * Histograms use power-of-two buckets: bucket i covers
//     (base * 2^(i-1), base * 2^i], bucket 0 additionally absorbs everything
//     <= base, and the last bucket absorbs everything above its bound.
//     Quantiles are bucket-resolved (the bucket upper bound, clamped into the
//     observed [min, max]) — within a factor of 2, deterministic, and exactly
//     testable against the documented boundaries.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omega::util::telemetry {

inline constexpr std::size_t kHistogramBuckets = 64;

class Counter;
class Gauge;
class Histogram;

namespace detail {

/// Registry identity stamped on a registered metric: scopes index their
/// mirrors by `id` and name them by `name` (the registry's own key).
struct Identity {
  std::uint32_t id = 0;
  const std::string* name = nullptr;
};

/// The calling thread's scope mirror of a registered metric, created on the
/// scope's first record of it; nullptr when the thread is in no scope or the
/// metric is unregistered.
[[nodiscard]] Counter* scoped_counter(const Identity& identity);
[[nodiscard]] Gauge* scoped_gauge(const Identity& identity);
[[nodiscard]] Histogram* scoped_histogram(const Identity& identity,
                                          double base);

/// Relaxed CAS add for atomic doubles (portable stand-in for the C++20
/// floating fetch_add).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic event counter.
class Counter {
 public:
  Counter() = default;
  explicit Counter(detail::Identity identity) noexcept
      : identity_(identity) {}

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
    if (Counter* mirror = detail::scoped_counter(identity_)) mirror->add(n);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  detail::Identity identity_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins instantaneous measurement (ratios, levels).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(detail::Identity identity) noexcept : identity_(identity) {}

  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    if (Gauge* mirror = detail::scoped_gauge(identity_)) mirror->set(value);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  detail::Identity identity_;
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of one histogram, safe to keep and serialize.
struct HistogramSnapshot {
  double base = 1e-9;  // upper bound of bucket 0
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double bucket_upper_bound(std::size_t index) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Bucket-resolved quantile estimate, q in [0, 1]: the upper bound of the
  /// bucket holding the ceil(q * count)-th smallest sample, clamped into the
  /// exact observed [min, max]. Returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Per-sample union with another snapshot of the same histogram:
  /// count/sum/buckets add, min/max widen, base keeps this snapshot's value.
  /// Used to fold a checkpointed prior run's telemetry into the current one.
  [[nodiscard]] HistogramSnapshot merged_with(
      const HistogramSnapshot& other) const noexcept;
};

/// Log2-bucketed distribution with an exact count/sum/min/max sidecar.
/// record() is lock-free: bucket index computation plus a handful of relaxed
/// atomic updates. Non-finite samples are dropped (counted separately).
class Histogram {
 public:
  /// `base` is the upper bound of the first bucket; every later bucket
  /// doubles it. The default suits latencies in seconds (1 ns .. ~292 years);
  /// pass 1.0 for small-integer distributions such as queue depths.
  explicit Histogram(double base = 1e-9,
                     detail::Identity identity = {}) noexcept
      : base_(base), identity_(identity) {}

  void record(double value) noexcept {
    if (value != value || value - value != 0.0) {  // NaN or +-Inf
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, value);
    detail::atomic_min(min_, value);
    detail::atomic_max(max_, value);
    if (Histogram* mirror = detail::scoped_histogram(identity_, base_)) {
      mirror->record(value);
    }
  }

  /// Index of the bucket `value` lands in; exact at the power-of-two
  /// boundaries (a value equal to a bucket's upper bound belongs to it).
  [[nodiscard]] std::size_t bucket_index(double value) const noexcept;
  [[nodiscard]] double bucket_upper_bound(std::size_t index) const noexcept;
  [[nodiscard]] double base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  double base_;
  detail::Identity identity_;
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of every registered metric, name-sorted so emitted
/// documents are stable and diffable.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const noexcept;
  [[nodiscard]] std::uint64_t counter_value(std::string_view name)
      const noexcept;

  /// Union with a prior run's snapshot (checkpoint resume): counters and
  /// histogram contents add, gauges keep this snapshot's (current) value when
  /// present on both sides, and metrics present on only one side are taken
  /// whole. Output stays name-sorted so documents remain stable.
  [[nodiscard]] RegistrySnapshot merged_with(const RegistrySnapshot& other)
      const;
};

/// A per-scan mirror of the registry: every record a thread makes while this
/// scope is its current one (Scope::Enter) also lands in the scope's copy of
/// that metric, so a scan's telemetry holds exactly its own activity.
/// par::ThreadPool runs each task under its submitter's scope. A scope must
/// outlive every task that records into it.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Makes `scope` (nullptr: none) the calling thread's current scope for
  /// this object's lifetime, then restores the previous one. Enter and leave
  /// on the same thread, innermost first.
  class Enter {
   public:
    explicit Enter(Scope* scope) noexcept;
    ~Enter();
    Enter(const Enter&) = delete;
    Enter& operator=(const Enter&) = delete;

   private:
    Scope* previous_;
  };

  /// The calling thread's current scope, or nullptr.
  [[nodiscard]] static Scope* current() noexcept;

  /// Name-sorted copy of every metric recorded inside this scope.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  struct Impl;
  friend Counter* detail::scoped_counter(const detail::Identity&);
  friend Gauge* detail::scoped_gauge(const detail::Identity&);
  friend Histogram* detail::scoped_histogram(const detail::Identity&, double);
  std::unique_ptr<Impl> impl_;
};

/// Resolves `name` to the process-wide metric, registering it on first use.
/// The returned reference is valid forever (see header comment). For
/// histogram(), `base` applies only to the registering call; later callers
/// get the existing instance regardless of the base they pass.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name, double base = 1e-9);

[[nodiscard]] RegistrySnapshot snapshot();

/// Zeroes every registered metric in place. Cached references stay valid;
/// registrations are never removed.
void reset();

/// Prometheus-style text exposition of the current registry state: counters
/// and gauges as single samples, histograms as cumulative `_bucket{le=...}`
/// series plus `_sum`/`_count`. Every family gets a `# HELP`/`# TYPE` pair;
/// the help line echoes the original registry name. Metric names are
/// sanitized to `omega_<name with [^a-zA-Z0-9_] -> _>`.
[[nodiscard]] std::string to_text();

}  // namespace omega::util::telemetry
