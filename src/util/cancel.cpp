#include "util/cancel.h"

#include <chrono>
#include <csignal>

namespace omega::util {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void cancel_signal_handler(int /*signum*/) {
  // Only lock-free atomic stores happen under request(); async-signal-safe.
  process_cancel_token().request(CancelReason::Signal);
}

}  // namespace

const char* cancel_reason_name(CancelReason reason) noexcept {
  switch (reason) {
    case CancelReason::None:
      return "none";
    case CancelReason::Signal:
      return "signal";
    case CancelReason::Deadline:
      return "deadline";
    case CancelReason::Api:
      return "api";
  }
  return "unknown";
}

CancelToken& process_cancel_token() noexcept {
  // Immortal singleton (never destroyed) so signal handlers racing process
  // teardown never touch a destructed object — same pattern as the
  // telemetry registry.
  static CancelToken* token = new CancelToken();
  return *token;
}

bool install_cancel_signal_handlers() noexcept {
  bool ok = true;
#ifdef SIGINT
  ok = (std::signal(SIGINT, &cancel_signal_handler) != SIG_ERR) && ok;
#endif
#ifdef SIGTERM
  ok = (std::signal(SIGTERM, &cancel_signal_handler) != SIG_ERR) && ok;
#endif
  return ok;
}

Deadline::Deadline(double budget_seconds, Clock clock)
    : enabled_(budget_seconds > 0.0),
      budget_(budget_seconds),
      clock_(clock ? std::move(clock) : Clock(&steady_seconds)) {
  if (enabled_) start_ = clock_();
}

bool Deadline::expired() const {
  return enabled_ && clock_() - start_ >= budget_;
}

}  // namespace omega::util
