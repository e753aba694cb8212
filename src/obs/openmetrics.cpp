#include "obs/openmetrics.h"

#include <array>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <mutex>

#include "common/error.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/sink.h"

namespace decam::obs {
namespace {

// Shortest round-trippable-enough float text; OpenMetrics permits the full
// Go/C float grammar including exponents, so %.9g is always valid.
std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string format_value(std::uint64_t value) {
  return std::to_string(value);
}

void append_histogram(const std::string& family, const Histogram& histogram,
                      std::string& out) {
  out += "# TYPE " + family + " histogram\n";
  out += "# UNIT " + family + " seconds\n";

  // Cumulative bucket encoding. Only occupied buckets and each one's
  // predecessor are emitted — the predecessor pins the lower edge of every
  // step so the series is unambiguous while long empty stretches collapse.
  // The last bucket is the overflow catch-all; its finite upper bound is a
  // lie, so its samples appear only in the mandatory +Inf line.
  std::array<bool, Histogram::kBucketCount> emit{};
  for (int i = 0; i < Histogram::kBucketCount - 1; ++i) {
    if (histogram.bucket_count(i) > 0) {
      emit[static_cast<std::size_t>(i)] = true;
      if (i > 0) emit[static_cast<std::size_t>(i - 1)] = true;
    }
  }
  std::uint64_t cumulative = 0;
  for (int i = 0; i < Histogram::kBucketCount - 1; ++i) {
    cumulative += histogram.bucket_count(i);
    if (!emit[static_cast<std::size_t>(i)]) continue;
    out += family + "_bucket{le=\"" +
           format_value(Histogram::bucket_upper_ms(i) / 1000.0) + "\"} " +
           format_value(cumulative) + "\n";
  }
  const std::uint64_t total = histogram.count();
  out += family + "_bucket{le=\"+Inf\"} " + format_value(total) + "\n";
  out += family + "_count " + format_value(total) + "\n";
  out += family + "_sum " + format_value(histogram.sum_ms() / 1000.0) + "\n";
}

// atomic<int> rather than sig_atomic_t: the flag is also drained from pool
// worker threads (decamctl services it between images), so the
// check-and-clear must be one atomic exchange. Lock-free atomic stores are
// async-signal-safe, so the handler side stays legal too.
std::atomic<int> g_dump_pending{0};

void handle_sigusr1(int) {
  g_dump_pending.store(1, std::memory_order_relaxed);
}

struct DumpTarget {
  std::mutex mutex;
  std::filesystem::path path;
};

DumpTarget& dump_target() {
  static DumpTarget instance;
  return instance;
}

}  // namespace

std::string openmetrics_name(std::string_view registry_name) {
  std::string out = "decam_";
  out.reserve(out.size() + registry_name.size());
  for (const char c : registry_name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string export_openmetrics() {
  sample_memory_gauges();
  auto& registry = MetricsRegistry::instance();
  std::string out;
  for (const auto& [name, value] : registry.counter_values()) {
    const std::string family = openmetrics_name(name);
    out += "# TYPE " + family + " counter\n";
    out += family + "_total " + format_value(value) + "\n";
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    const std::string family = openmetrics_name(name);
    out += "# TYPE " + family + " gauge\n";
    out += family + " " + format_value(value) + "\n";
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    append_histogram(openmetrics_name(name) + "_seconds", *histogram, out);
  }
  out += "# EOF\n";
  return out;
}

void write_openmetrics(const std::filesystem::path& path) {
  write_text_file(path, export_openmetrics());
}

void install_openmetrics_signal_handler(const std::filesystem::path& path) {
  {
    std::lock_guard lock(dump_target().mutex);
    dump_target().path = path;
  }
#ifdef SIGUSR1
  std::signal(SIGUSR1, handle_sigusr1);
#endif
}

bool service_openmetrics_signal_dump() {
  if (g_dump_pending.exchange(0, std::memory_order_relaxed) == 0) {
    return false;
  }
  std::filesystem::path path;
  {
    std::lock_guard lock(dump_target().mutex);
    path = dump_target().path;
  }
  if (path.empty()) return false;
  try {
    write_openmetrics(path);
  } catch (const IoError& error) {
    std::fprintf(stderr, "decam: metrics dump failed: %s\n", error.what());
    return false;
  }
  return true;
}

}  // namespace decam::obs
