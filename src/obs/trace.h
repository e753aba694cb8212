// Trace-event collection and Chrome trace export.
//
// Spans (obs/span.h) append completed TraceEvents to the global TraceBuffer
// while the trace sink is on (obs/sink.h: DECAM_TRACE_FILE, or
// set_tracing_enabled). The buffer serialises to the Chrome trace-event
// JSON format ("X" complete events), loadable in chrome://tracing or
// Perfetto for flamegraph-style inspection of a detection run; the exit
// flush writes it to DECAM_TRACE_FILE.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/sink.h"

namespace decam::obs {

/// Labels the calling thread's trace timeline (runtime pool workers register
/// as "decam-worker-N"). Exported as Chrome "thread_name" metadata so worker
/// rows are named in chrome://tracing. Cheap; recorded even when tracing is
/// off so a later set_tracing_enabled(true) still has the names.
void set_current_thread_name(std::string name);

struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   // start, µs since the process clock anchor
  double dur_us = 0.0;  // duration in µs
  std::uint32_t tid = 0;
};

class TraceBuffer {
 public:
  static TraceBuffer& instance();

  void add(TraceEvent event);
  std::size_t size() const;
  void clear();
  std::vector<TraceEvent> snapshot() const;

  /// Thread-name registry feeding the Chrome metadata events. clear() does
  /// NOT drop names: threads outlive trace epochs.
  void set_thread_name(std::uint32_t tid, std::string name);
  std::vector<std::pair<std::uint32_t, std::string>> thread_names() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}).
  std::string chrome_json() const;
  /// Writes chrome_json() to `path` (throws IoError on failure).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  TraceBuffer() = default;

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::string> thread_names_;
};

/// `text` escaped for the inside of a JSON string literal: `"`, `\` and
/// every byte below 0x20. Other bytes, multi-byte UTF-8 included, pass
/// through unchanged.
std::string json_escape(std::string_view text);

}  // namespace decam::obs
