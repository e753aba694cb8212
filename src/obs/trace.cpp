#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/error.h"
#include "obs/clock.h"

namespace decam::obs {
namespace {

bool env_truthy(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

// -1 = not yet read from the environment.
std::atomic<int> g_tracing{-1};

void flush_at_exit() { flush_trace(); }

void bootstrap_tracing() {
  // Touch the singletons so their function-local statics outlive the atexit
  // handler (statics are destroyed in reverse construction order).
  TraceBuffer::instance();
  std::atexit(flush_at_exit);
  int expected = -1;
  g_tracing.compare_exchange_strong(expected, env_truthy("DECAM_TRACE") ? 1 : 0,
                                    std::memory_order_relaxed);
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool tracing_enabled() {
  const int state = g_tracing.load(std::memory_order_relaxed);
  if (state >= 0) return state != 0;
  bootstrap_tracing();
  return g_tracing.load(std::memory_order_relaxed) != 0;
}

void set_tracing_enabled(bool enabled) {
  // Run the bootstrap first so the atexit flush is registered even when the
  // gate was never consulted through the environment.
  tracing_enabled();
  g_tracing.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::string trace_file_path() {
  const char* value = std::getenv("DECAM_TRACE_FILE");
  return value == nullptr ? std::string() : std::string(value);
}

void set_current_thread_name(std::string name) {
  TraceBuffer::instance().set_thread_name(current_tid(), std::move(name));
}

TraceBuffer& TraceBuffer::instance() {
  static TraceBuffer buffer;
  return buffer;
}

void TraceBuffer::add(TraceEvent event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

std::size_t TraceBuffer::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

void TraceBuffer::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void TraceBuffer::set_thread_name(std::uint32_t tid, std::string name) {
  std::lock_guard lock(mutex_);
  thread_names_[tid] = std::move(name);
}

std::vector<std::pair<std::uint32_t, std::string>> TraceBuffer::thread_names()
    const {
  std::lock_guard lock(mutex_);
  return {thread_names_.begin(), thread_names_.end()};
}

std::string TraceBuffer::chrome_json() const {
  const std::vector<TraceEvent> events = snapshot();
  const auto names = thread_names();
  std::string out = "{\"traceEvents\":[";
  char number[64];
  bool first = true;
  // Thread-name metadata first, so viewers label worker rows before laying
  // out the duration events recorded from them.
  for (const auto& [tid, name] : names) {
    if (!first) out += ',';
    first = false;
    std::snprintf(number, sizeof(number), "%u", tid);
    out += "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += number;
    out += ",\"args\":{\"name\":\"";
    out += json_escape(name);
    out += "\"}}";
  }
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += json_escape(event.name);
    out += "\",\"cat\":\"decam\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(number, sizeof(number), "%u", event.tid);
    out += number;
    std::snprintf(number, sizeof(number), ",\"ts\":%.3f,\"dur\":%.3f}",
                  event.ts_us, event.dur_us);
    out += number;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void TraceBuffer::write_chrome_trace(
    const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw IoError(path.string() + ": cannot open for writing");
  out << chrome_json();
  if (!out) throw IoError(path.string() + ": short write");
}

bool flush_trace() {
  if (!tracing_enabled()) return false;
  const std::string path = trace_file_path();
  if (path.empty()) return false;
  if (TraceBuffer::instance().size() == 0) return false;
  try {
    TraceBuffer::instance().write_chrome_trace(path);
  } catch (const IoError& error) {
    // Exit paths must not throw, but a requested trace silently vanishing
    // is worse than a stderr line. Warn once: an explicit flush and the
    // atexit flush would otherwise both report the same bad path.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr, "decam: trace not written: %s\n", error.what());
    }
    return false;
  }
  return true;
}

}  // namespace decam::obs
