#include "util/telemetry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace omega::util::telemetry {

namespace {

constexpr std::size_t kLast = kHistogramBuckets - 1;

double upper_bound_for(double base, std::size_t index) noexcept {
  return std::ldexp(base, static_cast<int>(index));
}

std::size_t index_for(double base, double value) noexcept {
  if (!(value > base)) return 0;
  // log2 gets us within one bucket of the right answer; the fixup loops make
  // the boundary exact (a value equal to an upper bound belongs to that
  // bucket), which the tests assert at machine-representable boundaries.
  const double ratio = value / base;
  double guess = std::ceil(std::log2(ratio));
  if (!(guess >= 0.0)) guess = 0.0;
  if (guess > static_cast<double>(kLast)) guess = static_cast<double>(kLast);
  std::size_t i = static_cast<std::size_t>(guess);
  while (i > 0 && value <= upper_bound_for(base, i - 1)) --i;
  while (i < kLast && value > upper_bound_for(base, i)) ++i;
  return i;
}

}  // namespace

double HistogramSnapshot::bucket_upper_bound(std::size_t index) const noexcept {
  return upper_bound_for(base, std::min(index, kLast));
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      return std::clamp(bucket_upper_bound(i), min, max);
    }
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::merged_with(
    const HistogramSnapshot& other) const noexcept {
  HistogramSnapshot merged = *this;
  merged.count = count + other.count;
  merged.sum = sum + other.sum;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    merged.buckets[i] = buckets[i] + other.buckets[i];
  }
  if (count == 0) {
    merged.min = other.min;
    merged.max = other.max;
  } else if (other.count > 0) {
    merged.min = std::min(min, other.min);
    merged.max = std::max(max, other.max);
  }
  return merged;
}

std::size_t Histogram::bucket_index(double value) const noexcept {
  return index_for(base_, value);
}

double Histogram::bucket_upper_bound(std::size_t index) const noexcept {
  return upper_bound_for(base_, std::min(index, kLast));
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot snap;
  snap.base = base_;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

const HistogramSnapshot* RegistrySnapshot::find_histogram(
    std::string_view name) const noexcept {
  for (const auto& [key, snap] : histograms) {
    if (key == name) return &snap;
  }
  return nullptr;
}

std::uint64_t RegistrySnapshot::counter_value(
    std::string_view name) const noexcept {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

RegistrySnapshot RegistrySnapshot::merged_with(
    const RegistrySnapshot& other) const {
  RegistrySnapshot merged;
  // All three metric families use the same name-sorted two-pointer union;
  // duplicates within one snapshot cannot occur (map-backed registry).
  auto union_names = [](auto& out, const auto& a, const auto& b,
                        auto combine) {
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
        out.emplace_back(a[i].first, a[i].second);
        ++i;
      } else if (i >= a.size() || b[j].first < a[i].first) {
        out.emplace_back(b[j].first, b[j].second);
        ++j;
      } else {
        out.emplace_back(a[i].first, combine(a[i].second, b[j].second));
        ++i;
        ++j;
      }
    }
  };
  union_names(merged.counters, counters, other.counters,
              [](std::uint64_t a, std::uint64_t b) { return a + b; });
  union_names(merged.gauges, gauges, other.gauges,
              [](double current, double) { return current; });
  union_names(merged.histograms, histograms, other.histograms,
              [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
                return a.merged_with(b);
              });
  return merged;
}

namespace {

// Name-keyed maps of heap-allocated metrics: addresses stay stable across
// rehash-free std::map growth and are intentionally never freed by reset().
// The registry and every Scope keep one each.
struct Metrics {
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  [[nodiscard]] RegistrySnapshot snapshot() const {
    RegistrySnapshot snap;
    snap.counters.reserve(counters.size());
    for (const auto& [name, metric] : counters) {
      snap.counters.emplace_back(name, metric->value());
    }
    snap.gauges.reserve(gauges.size());
    for (const auto& [name, metric] : gauges) {
      snap.gauges.emplace_back(name, metric->value());
    }
    snap.histograms.reserve(histograms.size());
    for (const auto& [name, metric] : histograms) {
      snap.histograms.emplace_back(name, metric->snapshot());
    }
    return snap;
  }
};

// Registry ids index each scope's mirror table, so a process registers at
// most this many metric names (a scan uses a few dozen).
constexpr std::uint32_t kMaxMetrics = 4096;

struct Registry {
  std::mutex mutex;
  Metrics metrics;
  std::uint32_t next_id = 0;

  static Registry& instance() {
    static Registry* registry = new Registry();  // immortal: outlives statics
    return *registry;
  }

  /// Finds or registers `name` in `map`, stamping a fresh identity.
  template <class Metric, class... Args>
  Metric& resolve(std::map<std::string, std::unique_ptr<Metric>, std::less<>>&
                      map,
                  std::string_view name, Args... args) {
    const std::scoped_lock lock(mutex);
    auto it = map.find(name);
    if (it == map.end()) {
      if (next_id == kMaxMetrics) {
        throw std::length_error("telemetry: too many registered metrics");
      }
      it = map.emplace(std::string(name), nullptr).first;
      it->second = std::make_unique<Metric>(
          args..., detail::Identity{next_id++, &it->first});
    }
    return *it->second;
  }
};

thread_local Scope* t_current_scope = nullptr;

std::string sanitized(std::string_view name) {
  std::string out = "omega_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void format_number(std::ostringstream& out, double value) {
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::abs(value) < 1e15) {
    out << static_cast<long long>(value);
  } else {
    out << value;
  }
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& registry = Registry::instance();
  return registry.resolve(registry.metrics.counters, name);
}

Gauge& gauge(std::string_view name) {
  Registry& registry = Registry::instance();
  return registry.resolve(registry.metrics.gauges, name);
}

Histogram& histogram(std::string_view name, double base) {
  Registry& registry = Registry::instance();
  return registry.resolve(registry.metrics.histograms, name, base);
}

RegistrySnapshot snapshot() {
  Registry& registry = Registry::instance();
  const std::scoped_lock lock(registry.mutex);
  return registry.metrics.snapshot();
}

void reset() {
  Registry& registry = Registry::instance();
  const std::scoped_lock lock(registry.mutex);
  for (const auto& [name, metric] : registry.metrics.counters) metric->reset();
  for (const auto& [name, metric] : registry.metrics.gauges) metric->reset();
  for (const auto& [name, metric] : registry.metrics.histograms) {
    metric->reset();
  }
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

struct Scope::Impl {
  mutable std::mutex mutex;
  Metrics metrics;  // guarded by mutex; the mirrors' owners
  // Mirror of registry id i, published once it exists: looking up an
  // existing mirror is one acquire load.
  std::array<std::atomic<void*>, kMaxMetrics> mirrors{};

  /// The mirror of the registered metric `identity` in `map`, created by
  /// `make` on first use.
  template <class Metric, class Make>
  Metric* mirror(const detail::Identity& identity,
                 std::map<std::string, std::unique_ptr<Metric>, std::less<>>&
                     map,
                 Make make) {
    std::atomic<void*>& slot = mirrors[identity.id];
    if (void* found = slot.load(std::memory_order_acquire)) {
      return static_cast<Metric*>(found);
    }
    const std::scoped_lock lock(mutex);
    void* found = slot.load(std::memory_order_relaxed);
    if (found == nullptr) {
      found = map.try_emplace(*identity.name, make()).first->second.get();
      slot.store(found, std::memory_order_release);
    }
    return static_cast<Metric*>(found);
  }
};

Scope::Scope() : impl_(std::make_unique<Impl>()) {}

Scope::~Scope() = default;

Scope::Enter::Enter(Scope* scope) noexcept : previous_(t_current_scope) {
  t_current_scope = scope;
}

Scope::Enter::~Enter() { t_current_scope = previous_; }

Scope* Scope::current() noexcept { return t_current_scope; }

RegistrySnapshot Scope::snapshot() const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->metrics.snapshot();
}

namespace detail {

Counter* scoped_counter(const Identity& identity) {
  Scope* scope = t_current_scope;
  if (scope == nullptr || identity.name == nullptr) return nullptr;
  Scope::Impl& impl = *scope->impl_;
  return impl.mirror(identity, impl.metrics.counters,
                     [] { return std::make_unique<Counter>(); });
}

Gauge* scoped_gauge(const Identity& identity) {
  Scope* scope = t_current_scope;
  if (scope == nullptr || identity.name == nullptr) return nullptr;
  Scope::Impl& impl = *scope->impl_;
  return impl.mirror(identity, impl.metrics.gauges,
                     [] { return std::make_unique<Gauge>(); });
}

Histogram* scoped_histogram(const Identity& identity, double base) {
  Scope* scope = t_current_scope;
  if (scope == nullptr || identity.name == nullptr) return nullptr;
  Scope::Impl& impl = *scope->impl_;
  return impl.mirror(identity, impl.metrics.histograms,
                     [base] { return std::make_unique<Histogram>(base); });
}

}  // namespace detail

std::string to_text() {
  const RegistrySnapshot snap = snapshot();
  std::ostringstream out;
  out.precision(12);
  // Exposition-format HELP text: the registry carries no descriptions, so
  // the help line echoes the original (pre-sanitization) metric name — that
  // is the identifier documented in docs/OBSERVABILITY.md's metric tables.
  const auto help = [&out](const std::string& id, const std::string& name,
                           const char* kind) {
    out << "# HELP " << id << " omega telemetry " << kind << " '" << name
        << "'\n";
  };
  for (const auto& [name, value] : snap.counters) {
    const std::string id = sanitized(name);
    help(id, name, "counter");
    out << "# TYPE " << id << " counter\n";
    out << id << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string id = sanitized(name);
    help(id, name, "gauge");
    out << "# TYPE " << id << " gauge\n";
    out << id << " ";
    format_number(out, value);
    out << "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string id = sanitized(name);
    help(id, name, "histogram");
    out << "# TYPE " << id << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      cumulative += hist.buckets[i];
      // Only materialize buckets up to the last occupied one; the +Inf
      // bucket below carries the full count either way.
      if (hist.buckets[i] == 0) continue;
      out << id << "_bucket{le=\"" << hist.bucket_upper_bound(i) << "\"} "
          << cumulative << "\n";
    }
    out << id << "_bucket{le=\"+Inf\"} " << hist.count << "\n";
    out << id << "_sum ";
    format_number(out, hist.sum);
    out << "\n";
    out << id << "_count " << hist.count << "\n";
  }
  return out.str();
}

}  // namespace omega::util::telemetry
