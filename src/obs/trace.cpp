#include "obs/trace.h"

#include <cstdio>

#include "obs/clock.h"

namespace decam::obs {

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

void set_current_thread_name(std::string name) {
  TraceBuffer::instance().set_thread_name(current_tid(), std::move(name));
}

TraceBuffer& TraceBuffer::instance() {
  // Immortal, like MetricsRegistry: pool workers and the exit flush
  // (obs/sink.h) use it after static destruction has begun.
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
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
  write_text_file(path, chrome_json());
}

}  // namespace decam::obs
