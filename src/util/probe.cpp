#include "util/probe.h"

#include <exception>

#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::util::probe {

Site::Site(const char* span, const char* histogram, const char* perf_stage)
    : span_(span),
      histogram_(histogram != nullptr ? &telemetry::histogram(histogram)
                                      : nullptr),
      perf_(perf_stage != nullptr ? &perf::stage(perf_stage) : nullptr) {}

Stage::Stage(const Site& site) noexcept
    : site_(&site), exceptions_(std::uncaught_exceptions()) {
  if (site.perf_ != nullptr && perf::enabled()) {
    perf_begin_ = perf::read_thread_sample();
    counted_ = true;
  }
  // A span-only site reads the clock only while tracing.
  timed_ = site.histogram_ != nullptr ||
           (site.span_ != nullptr && trace::enabled());
  if (timed_) start_ = Clock::now();
}

Stage::~Stage() {
  if (site_ == nullptr || std::uncaught_exceptions() > exceptions_) return;
  if (timed_) {
    const Clock::time_point end = Clock::now();
    if (site_->histogram_ != nullptr) {
      site_->histogram_->record(
          std::chrono::duration<double>(end - start_).count());
    }
    if (site_->span_ != nullptr) trace::record_span(site_->span_, start_, end);
  }
  if (counted_) perf::add_scope(*site_->perf_, perf_begin_);
}

}  // namespace omega::util::probe
