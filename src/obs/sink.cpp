#include "obs/sink.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "common/error.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace decam::obs {
namespace {

void write_trace(const std::filesystem::path& path) {
  TraceBuffer::instance().write_chrome_trace(path);
}

struct SinkFile {
  SinkBit bit;
  const char* env;  // names the destination
  const char* what;
  void (*write)(const std::filesystem::path&);
};

constexpr SinkFile kSinkFiles[] = {
    {kTraceSink, "DECAM_TRACE_FILE", "trace", write_trace},
    {kProfileSink, "DECAM_PROFILE_FILE", "profile", write_collapsed_stacks},
};

// The sink's file, or nullptr when the variable is unset or empty.
const char* destination(const SinkFile& sink) {
  const char* path = std::getenv(sink.env);
  return path != nullptr && *path != '\0' ? path : nullptr;
}

void write_sinks_at_exit();

unsigned sinks_from_environment() {
  unsigned on = 0;
  for (const SinkFile& sink : kSinkFiles) {
    if (destination(sink) != nullptr) on |= sink.bit;
  }
  // Registered during start-up, so it runs after the destructors of the
  // statics first used later (the global pool's included); the sinks it
  // reads are immortal.
  std::atexit(write_sinks_at_exit);
  return on;
}

std::atomic<unsigned> g_sinks{sinks_from_environment()};

void write_sinks_at_exit() {
  const unsigned on = g_sinks.load(std::memory_order_relaxed);
  for (const SinkFile& sink : kSinkFiles) {
    const char* path = destination(sink);
    if ((on & sink.bit) == 0 || path == nullptr) continue;
    try {
      sink.write(path);
    } catch (const std::exception& error) {  // must not escape exit
      std::fprintf(stderr, "decam: %s not written: %s\n", sink.what,
                   error.what());
    }
  }
}

void set_sink(SinkBit bit, bool enabled) {
  if (enabled) {
    g_sinks.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~static_cast<unsigned>(bit), std::memory_order_relaxed);
  }
}

}  // namespace

unsigned enabled_sinks() { return g_sinks.load(std::memory_order_relaxed); }

bool tracing_enabled() { return (enabled_sinks() & kTraceSink) != 0; }
void set_tracing_enabled(bool enabled) { set_sink(kTraceSink, enabled); }
bool profiling_enabled() { return (enabled_sinks() & kProfileSink) != 0; }
void set_profiling_enabled(bool enabled) { set_sink(kProfileSink, enabled); }

void write_text_file(const std::filesystem::path& path,
                     std::string_view text) {
  std::ofstream out(path);
  if (!out) throw IoError(path.string() + ": cannot open for writing");
  out << text;
  out.close();  // a write error can surface only when the buffer flushes
  if (!out) throw IoError(path.string() + ": short write");
}

}  // namespace decam::obs
