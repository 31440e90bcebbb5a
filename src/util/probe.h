#pragma once
// The one instrumentation site of a scan stage (docs/OBSERVABILITY.md § Stage
// probes). A stage names its sinks once in a Site — a trace span, a latency
// histogram and a hardware-counter stage, any of which may be absent — and
// wraps its work in a Stage probe. The probe reads the steady clock once at
// each edge and feeds every sink from those two readings: the histogram (and
// so the current telemetry scope, from which ScanProfile's stage seconds are
// derived), the trace ring when tracing is on, and the perf counters when
// util::perf is enabled. A stage left by an exception, or discard()ed,
// records nothing, so every sink counts exactly the completed occurrences.

#include <chrono>

#include "util/perf_counters.h"

namespace omega::util::telemetry {
class Histogram;
}

namespace omega::util::probe {

/// One stage's sinks, resolved at construction; keep it in a function-local
/// static. `span` must be a string literal (the trace ring stores the
/// pointer). Pass nullptr for a sink the stage does not feed.
class Site {
 public:
  Site(const char* span, const char* histogram,
       const char* perf_stage = nullptr);

 private:
  friend class Stage;
  const char* span_;
  telemetry::Histogram* histogram_;
  perf::StageCounters* perf_;
};

/// RAII probe around one occurrence of a stage.
class Stage {
 public:
  explicit Stage(const Site& site) noexcept;
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Drops this occurrence: no sink records it.
  void discard() noexcept { site_ = nullptr; }

 private:
  using Clock = std::chrono::steady_clock;
  const Site* site_;
  int exceptions_;  // std::uncaught_exceptions() on entry
  bool timed_ = false;
  bool counted_ = false;
  Clock::time_point start_{};
  perf::Sample perf_begin_{};
};

}  // namespace omega::util::probe
