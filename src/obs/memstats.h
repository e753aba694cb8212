// Memory accounting for the telemetry layer.
//
// Subsystems that own sizeable resident state (LRU caches, per-thread
// scratch workspaces, AnalysisContext intermediates) register a named byte
// source once; sample_memory_gauges() polls every source and publishes a
// `mem/<name>_bytes` gauge in the MetricsRegistry, alongside the process
// RSS read from /proc/self/status. Exporters call it right before they
// snapshot, so the gauges are fresh without any bookkeeping on hot paths.
//
// The obs library sits below imaging/signal/core in the link order, so it
// cannot ask the caches for their sizes directly — registration inverts the
// dependency: each subsystem registers its source from its own .cpp at
// first use.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "report/table.h"

namespace decam::obs {

/// Registers (or replaces) a byte source polled by sample_memory_gauges().
/// `bytes_fn` must be callable from any thread. Registration is cheap and
/// idempotent by name; subsystems typically register from a function-local
/// static initializer.
void register_memory_source(std::string_view name,
                            std::function<std::uint64_t()> bytes_fn);

/// One thread's share of a memory source that counts per-thread scratch.
/// The source's total is a namespace-scope atomic (constant-initialised,
/// so it outlives every thread's share); each thread's scratch holds a
/// ScratchShare on it, whose construction registers the source. set()
/// moves this thread's share to the bytes its scratch holds now, and the
/// thread's exit takes the share out again, so sampling is one relaxed
/// load.
class ScratchShare {
 public:
  ScratchShare(std::string_view source, std::atomic<std::uint64_t>& total)
      : total_(total) {
    register_memory_source(source, [&total] {
      return total.load(std::memory_order_relaxed);
    });
  }
  ~ScratchShare() { total_.fetch_sub(bytes_, std::memory_order_relaxed); }
  ScratchShare(const ScratchShare&) = delete;
  ScratchShare& operator=(const ScratchShare&) = delete;

  /// A shrink wraps modulo 2^64 and lands exactly.
  void set(std::uint64_t bytes) {
    total_.fetch_add(bytes - bytes_, std::memory_order_relaxed);
    bytes_ = bytes;
  }

 private:
  std::atomic<std::uint64_t>& total_;
  std::uint64_t bytes_ = 0;
};

/// Current resident set size of the process in bytes (VmRSS), or 0 when
/// /proc/self/status is unavailable.
std::uint64_t current_rss_bytes();

/// Peak resident set size of the process in bytes (VmHWM), or 0 when
/// /proc/self/status is unavailable.
std::uint64_t peak_rss_bytes();

/// Polls every registered source and the process RSS, publishing
/// `mem/<name>_bytes`, `mem/process_rss_bytes`, and
/// `mem/process_peak_rss_bytes` gauges in the MetricsRegistry.
void sample_memory_gauges();

/// Samples and renders the byte figures as a two-column table
/// (source, bytes) sorted by descending size — `decamctl scan --stats`.
report::Table render_memory_table();

}  // namespace decam::obs
