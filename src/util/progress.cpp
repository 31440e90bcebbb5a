#include "util/progress.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

namespace omega::util {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_duration(std::ostringstream& out, double seconds) {
  if (seconds >= 3600.0) {
    out << static_cast<long long>(seconds / 3600.0) << "h"
        << static_cast<long long>(seconds / 60.0) % 60 << "m";
  } else if (seconds >= 60.0) {
    out << static_cast<long long>(seconds / 60.0) << "m"
        << static_cast<long long>(seconds) % 60 << "s";
  } else {
    out.precision(1);
    out << std::fixed << seconds << "s";
  }
}

}  // namespace

std::string ProgressUpdate::line() const {
  std::ostringstream out;
  out << "[scan] " << positions_done;
  if (positions_total > 0) out << "/" << positions_total;
  out << " positions";
  if (chunks_total > 0) {
    out << ", chunk " << chunks_done << "/" << chunks_total;
  }
  if (positions_per_second > 0.0) {
    out.precision(positions_per_second < 10.0 ? 2 : 0);
    out << std::fixed << ", " << positions_per_second << " pos/s";
  }
  if (!final) {
    if (eta_seconds >= 0.0) {
      out << ", ETA ";
      append_duration(out, eta_seconds);
    } else if (positions_total > 0) {
      // The total is known but the measured rate is still zero (typically
      // the begin() update, before the first position lands): show an
      // explicit placeholder rather than dropping the field or extrapolating
      // from a meaningless rate.
      out << ", ETA —";
    }
  }
  if (final) {
    out << ", done in ";
    append_duration(out, elapsed_seconds);
  }
  if (faults > 0) out << ", faults " << faults;
  if (quarantined > 0) out << ", quarantined " << quarantined;
  return out.str();
}

ProgressReporter::ProgressReporter(Sink sink, double interval_seconds,
                                   Clock clock)
    : sink_(std::move(sink)),
      clock_(clock ? std::move(clock) : Clock(&steady_seconds)),
      interval_seconds_(interval_seconds > 0.0 ? interval_seconds : 0.0) {}

void ProgressReporter::begin(std::uint64_t positions_total,
                             std::uint64_t chunks_total,
                             std::uint64_t positions_resumed,
                             std::uint64_t chunks_resumed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  start_time_ = clock_();
  last_emit_time_ = start_time_;
  started_ = true;
  active_ = true;
  state_ = ProgressUpdate{};
  state_.positions_total = positions_total;
  state_.chunks_total = chunks_total;
  state_.positions_done = positions_resumed;
  state_.chunks_done = chunks_resumed;
  baseline_positions_ = positions_resumed;
  emit_locked(/*final=*/false);
}

void ProgressReporter::advance(const Delta& delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!started_) {  // tolerate driver paths that never called begin()
    start_time_ = clock_();
    last_emit_time_ = start_time_ - interval_seconds_;  // emit on first call
    started_ = true;
    active_ = true;
  }
  state_.positions_done += delta.positions;
  state_.chunks_done += delta.chunks;
  state_.faults += delta.faults;
  state_.quarantined += delta.quarantined;
  const double now = clock_();
  if (now - last_emit_time_ >= interval_seconds_) {
    emit_locked(/*final=*/false);
  }
}

void ProgressReporter::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) return;
  active_ = false;
  emit_locked(/*final=*/true);
}

void ProgressReporter::emit_locked(bool final) {
  const double now = clock_();
  state_.elapsed_seconds = now - start_time_;
  state_.final = final;
  const std::uint64_t done_this_run =
      state_.positions_done > baseline_positions_
          ? state_.positions_done - baseline_positions_
          : 0;
  state_.positions_per_second =
      state_.elapsed_seconds > 0.0
          ? static_cast<double>(done_this_run) / state_.elapsed_seconds
          : 0.0;
  if (!final && state_.positions_total > 0 &&
      state_.positions_per_second > 0.0 &&
      state_.positions_done <= state_.positions_total) {
    state_.eta_seconds =
        static_cast<double>(state_.positions_total - state_.positions_done) /
        state_.positions_per_second;
  } else {
    state_.eta_seconds = -1.0;
  }
  last_emit_time_ = now;
  if (sink_) sink_(state_);
}

ProgressReporter::Sink ProgressReporter::stderr_sink() {
  return [](const ProgressUpdate& update) {
    std::fprintf(stderr, "%s\n", update.line().c_str());
  };
}

}  // namespace omega::util
