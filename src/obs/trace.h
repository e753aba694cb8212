// Trace-event collection and Chrome trace export.
//
// Spans (obs/span.h) append completed TraceEvents to the global TraceBuffer
// when tracing is enabled. The buffer serialises to the Chrome trace-event
// JSON format ("X" complete events), loadable in chrome://tracing or Perfetto
// for flamegraph-style inspection of a detection run.
//
// Gates:
//  - runtime: DECAM_TRACE env var (unset / "" / "0" = off), overridable in
//    process via set_tracing_enabled();
//  - file:    DECAM_TRACE_FILE names the JSON destination; the buffer is
//    flushed there automatically at process exit, or earlier via
//    flush_trace();
//  - compile time: building with -DDECAM_OBS_DISABLED turns the DECAM_SPAN /
//    DECAM_TIMER macros into no-ops (CMake option DECAM_OBS=OFF).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace decam::obs {

/// True when span collection is on. First call reads DECAM_TRACE once;
/// set_tracing_enabled() overrides afterwards. The steady-state cost is one
/// relaxed atomic load.
bool tracing_enabled();

/// Programmatic override of the DECAM_TRACE gate (frontends, tests).
void set_tracing_enabled(bool enabled);

/// Value of DECAM_TRACE_FILE, or empty when unset.
std::string trace_file_path();

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

/// Writes the buffer to DECAM_TRACE_FILE if tracing is enabled and the env
/// var is set. Returns true when a file was written. Also registered to run
/// at process exit, so `DECAM_TRACE=1 DECAM_TRACE_FILE=t.json <binary>`
/// needs no cooperation from the binary.
bool flush_trace();

}  // namespace decam::obs
