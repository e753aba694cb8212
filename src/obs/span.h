// The one timing probe. A Span times its scope; when it finishes it
// records the scope in
//   - the registry histogram handed to its constructor, if any: the
//     scope's ms, whether or not a sink is on (callers ask for these
//     stats explicitly);
//   - the stage profiler (obs/profiler.h), while its sink is on: one node
//     of the call tree;
//   - the trace buffer (obs/trace.h), while its sink is on: one Chrome
//     trace event.
// The sinks are switched in obs/sink.h. With both off and no histogram,
// the constructor is one relaxed atomic load and a branch. Instrument
// library hot paths with the DECAM_SPAN macro.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace decam::obs {

namespace detail {
struct ProfileNode;  // obs/profiler.h
}

class Span {
 public:
  explicit Span(std::string_view name, Histogram* histogram = nullptr);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Ends the span early: records the histogram sample, pops the profile
  /// frame and appends the trace event, once.
  void finish();
  bool active() const { return active_; }

 private:
  std::string name_;  // kept only while tracing
  Histogram* histogram_;
  detail::ProfileNode* frame_ = nullptr;
  double start_us_ = 0.0;
  bool active_ = false;
  bool traced_ = false;
};

}  // namespace decam::obs

#define DECAM_OBS_CONCAT_INNER(a, b) a##b
#define DECAM_OBS_CONCAT(a, b) DECAM_OBS_CONCAT_INNER(a, b)

/// Marks the enclosing scope as a trace span and profiler stage (no-op
/// while both sinks are off).
#define DECAM_SPAN(name) \
  ::decam::obs::Span DECAM_OBS_CONCAT(decam_obs_span_, __LINE__)(name)
