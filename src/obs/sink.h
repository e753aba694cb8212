// The telemetry switch (DESIGN.md §7). Spans (obs/span.h) feed two sinks:
// the Chrome trace buffer (obs/trace.h) and the stage profiler
// (obs/profiler.h). A sink is on when it has a destination:
//
//   DECAM_TRACE_FILE    Chrome trace JSON
//   DECAM_PROFILE_FILE  collapsed stacks ("a;b;c <self_us>" per line)
//
// The environment is read once, before main, into one atomic word that
// holds both bits, and one atexit handler writes every sink that is on and
// has a file. A failed write prints one stderr line naming the path and
// leaves the exit code alone. set_tracing_enabled / set_profiling_enabled
// flip a bit in process (tests, benches, decamctl --profile-tree); a sink
// turned on that way collects in memory for the caller to render.
#pragma once

#include <filesystem>
#include <string_view>

namespace decam::obs {

enum SinkBit : unsigned { kTraceSink = 1u, kProfileSink = 2u };

/// The SinkBits of the sinks that are on: one relaxed atomic load.
unsigned enabled_sinks();

bool tracing_enabled();
void set_tracing_enabled(bool enabled);
bool profiling_enabled();
void set_profiling_enabled(bool enabled);

/// Writes `text` to `path`, replacing it. Throws IoError naming the path
/// when the file cannot be opened or fully written.
void write_text_file(const std::filesystem::path& path, std::string_view text);

}  // namespace decam::obs
