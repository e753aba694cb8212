// Thread-safe process metrics: counters, gauges, and fixed-bucket latency
// histograms, owned by a global MetricsRegistry.
//
// Design constraints (DESIGN.md §7):
//  - recording must be lock-free (atomics only) so hot detector paths can be
//    instrumented without contention;
//  - handles returned by the registry are stable for the process lifetime,
//    so callers resolve a metric once (static local) and record through the
//    reference afterwards;
//  - histograms use geometric fixed buckets (1 µs lower bound, 2^(1/4)
//    growth factor), giving ~9 % relative resolution from microseconds to
//    about an hour — plenty for p50/p95/p99 latency summaries.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace decam::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (queue depth, rate, configuration knob...).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram over milliseconds. Recording is lock-free;
/// percentile queries interpolate within the winning bucket and clamp to the
/// exact observed min/max.
class Histogram {
 public:
  static constexpr int kBucketCount = 128;
  static constexpr double kMinMs = 1e-3;  // bucket 0 upper bound = 1 µs * 2^¼

  /// Upper bound (inclusive) of bucket `index`, in milliseconds.
  static double bucket_upper_ms(int index);
  /// Bucket receiving a sample of `ms` milliseconds.
  static int bucket_index(double ms);

  void record(double ms);

  /// Samples recorded into bucket `index` (relaxed snapshot, exporters).
  std::uint64_t bucket_count(int index) const {
    return buckets_[static_cast<std::size_t>(index)].load(
        std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_ms() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  double min_ms() const;
  double max_ms() const;
  /// Interpolated percentile, p in [0, 100]. 0 when empty.
  double percentile(double p) const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Process-wide name -> metric map. Lookup takes a mutex; the returned
/// references stay valid (and lock-free to record through) forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Snapshot accessors for exporters. Histogram pointers stay valid.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  /// Zeroes every metric, keeping handles valid (tests & long-lived
  /// services that report in epochs).
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace decam::obs
