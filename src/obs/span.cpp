#include "obs/span.h"

#include "obs/clock.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace decam::obs {

Span::Span(std::string_view name, Histogram* histogram)
    : histogram_(histogram) {
  const unsigned sinks = enabled_sinks();
  if (sinks == 0 && histogram == nullptr) return;
  if ((sinks & kTraceSink) != 0) {
    name_ = name;
    traced_ = true;
  }
  if ((sinks & kProfileSink) != 0) frame_ = detail::profile_enter(name);
  start_us_ = now_us();
  active_ = true;
}

void Span::finish() {
  if (!active_) return;
  active_ = false;
  const double elapsed_us = now_us() - start_us_;
  if (histogram_ != nullptr) histogram_->record(elapsed_us / 1000.0);
  // The profile frame must pop even if the sinks switched mid-span, so the
  // thread's stage stack stays balanced.
  if (frame_ != nullptr) detail::profile_exit(frame_, elapsed_us);
  if (traced_) {
    TraceBuffer::instance().add(
        {std::move(name_), start_us_, elapsed_us, current_tid()});
  }
}

}  // namespace decam::obs
