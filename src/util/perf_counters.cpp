#include "util/perf_counters.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/telemetry.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define OMEGA_PERF_HAVE_LINUX 1
#endif

namespace omega::util::perf {

struct StageCounters {
  telemetry::Counter& scopes;
  telemetry::Counter& cycles;
  telemetry::Counter& instructions;
  telemetry::Counter& cache_misses;
  telemetry::Counter& branch_misses;
  telemetry::Counter& task_clock_ns;
};

namespace {

// 0 = off, 1 = fallback (every probe refused so far), 2 = perf_event.
// Max-wins across threads: one thread with a live hardware group makes the
// whole process report "perf_event" (mixed sources are possible when e.g. a
// seccomp filter applies per-thread, and hardware wins the label because
// non-zero cycle counts exist).
std::atomic<int> g_source{0};
std::atomic<bool> g_enabled{false};
std::atomic<OpenFn> g_open_fn{nullptr};

void raise_source(int level) noexcept {
  int current = g_source.load(std::memory_order_relaxed);
  while (current < level && !g_source.compare_exchange_weak(
                                current, level, std::memory_order_relaxed)) {
  }
}

std::uint64_t thread_cputime_ns() noexcept {
#if defined(OMEGA_PERF_HAVE_LINUX) || defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  return 0;
}

#if defined(OMEGA_PERF_HAVE_LINUX)

long open_event(std::uint32_t type, std::uint64_t config, int group_fd) {
  if (OpenFn fn = g_open_fn.load(std::memory_order_acquire)) {
    return fn(type, config, group_fd);
  }
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;  // group enabled once, via leader
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP;
  const long fd = syscall(SYS_perf_event_open, &attr, 0 /*this thread*/,
                          -1 /*any cpu*/, group_fd, 0UL);
  return fd >= 0 ? fd : -static_cast<long>(errno);
}

/// Per-thread counter group: cycles leads, siblings in fixed order. One
/// read(2) with PERF_FORMAT_GROUP returns all four values.
struct ThreadGroup {
  int leader = -1;
  int fds[4] = {-1, -1, -1, -1};
  bool probed = false;
  bool hardware = false;

  void close_all() noexcept {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    leader = -1;
    probed = false;
    hardware = false;
  }

  ~ThreadGroup() { close_all(); }

  void probe() {
    probed = true;
    static constexpr std::uint64_t kConfigs[4] = {
        PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
    for (int i = 0; i < 4; ++i) {
      const long fd =
          open_event(PERF_TYPE_HARDWARE, kConfigs[i], i == 0 ? -1 : fds[0]);
      if (fd < 0) {
        close_all();
        probed = true;  // close_all cleared it; the refusal is sticky
        raise_source(1);
        return;
      }
      fds[i] = static_cast<int>(fd);
    }
    leader = fds[0];
    ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    hardware = true;
    raise_source(2);
  }

  bool read_group(Sample& out) noexcept {
    // { nr, values[nr] } — creation order.
    std::uint64_t buffer[1 + 4] = {};
    const ssize_t got = ::read(leader, buffer, sizeof(buffer));
    if (got < static_cast<ssize_t>(sizeof(std::uint64_t) * 5) ||
        buffer[0] != 4) {
      return false;
    }
    out.cycles = buffer[1];
    out.instructions = buffer[2];
    out.cache_misses = buffer[3];
    out.branch_misses = buffer[4];
    out.hardware = true;
    return true;
  }
};

thread_local ThreadGroup t_group;

#else  // !OMEGA_PERF_HAVE_LINUX

struct ThreadGroup {
  bool probed = false;
  bool hardware = false;
  void close_all() noexcept { probed = false; }
  void probe() {
    probed = true;
    raise_source(1);
  }
  bool read_group(Sample&) noexcept { return false; }
};

thread_local ThreadGroup t_group;

#endif  // OMEGA_PERF_HAVE_LINUX

/// Stage registry: immortal instances behind a mutex, resolved once per call
/// site — the same contract as the telemetry registry it feeds.
StageCounters& register_stage(const char* name) {
  static std::mutex* mutex = new std::mutex();
  static std::unordered_map<std::string, StageCounters*>* stages =
      new std::unordered_map<std::string, StageCounters*>();
  const std::lock_guard<std::mutex> lock(*mutex);
  auto it = stages->find(name);
  if (it == stages->end()) {
    const std::string prefix = std::string("perf.") + name + ".";
    auto* entry = new StageCounters{
        telemetry::counter(prefix + "scopes"),
        telemetry::counter(prefix + "cycles"),
        telemetry::counter(prefix + "instructions"),
        telemetry::counter(prefix + "cache_misses"),
        telemetry::counter(prefix + "branch_misses"),
        telemetry::counter(prefix + "task_clock_ns")};
    it = stages->emplace(name, entry).first;
  }
  return *it->second;
}

}  // namespace

StageCounters& stage(const char* name) { return register_stage(name); }

void enable() {
  raise_source(1);  // at least fallback from now on
  g_enabled.store(true, std::memory_order_release);
  (void)read_thread_sample();  // probe the calling thread eagerly
}

void disable() { g_enabled.store(false, std::memory_order_release); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_acquire); }

const char* source() noexcept {
  switch (g_source.load(std::memory_order_relaxed)) {
    case 2:
      return "perf_event";
    case 1:
      return "fallback";
    default:
      return "off";
  }
}

Sample read_thread_sample() {
  Sample sample;
  if (!enabled()) return sample;
  if (!t_group.probed) t_group.probe();
  if (t_group.hardware && !t_group.read_group(sample)) {
    // A group that stops reading (fd revoked) degrades like a refused open.
    t_group.close_all();
    t_group.probed = true;
    raise_source(1);
  }
  sample.task_clock_ns = thread_cputime_ns();
  return sample;
}

void add_scope(StageCounters& counters, const Sample& begin) {
  const Sample end = read_thread_sample();
  counters.scopes.add(1);
  counters.cycles.add(end.cycles - begin.cycles);
  counters.instructions.add(end.instructions - begin.instructions);
  counters.cache_misses.add(end.cache_misses - begin.cache_misses);
  counters.branch_misses.add(end.branch_misses - begin.branch_misses);
  counters.task_clock_ns.add(end.task_clock_ns - begin.task_clock_ns);
}

void set_open_fn_for_testing(OpenFn fn) {
  g_open_fn.store(fn, std::memory_order_release);
}

void reset_thread_for_testing(bool reset_source) {
  t_group.close_all();
  if (reset_source) {
    g_source.store(enabled() ? 1 : 0, std::memory_order_relaxed);
  }
}

}  // namespace omega::util::perf
