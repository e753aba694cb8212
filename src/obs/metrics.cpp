#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace decam::obs {
namespace {

// CAS loop: atomic<double> has no fetch_add/fetch_min before C++20 compilers
// grew them reliably, and relaxed ordering is all a statistic needs.
void atomic_add(std::atomic<double>& target, double delta) {
  double observed = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double observed = target.load(std::memory_order_relaxed);
  while (observed > value &&
         !target.compare_exchange_weak(observed, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double observed = target.load(std::memory_order_relaxed);
  while (observed < value &&
         !target.compare_exchange_weak(observed, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::add(double delta) { atomic_add(value_, delta); }

double Histogram::bucket_upper_ms(int index) {
  return kMinMs * std::exp2((index + 1) * 0.25);
}

int Histogram::bucket_index(double ms) {
  if (!(ms > kMinMs)) return 0;  // also catches NaN and negatives
  const int index = static_cast<int>(std::log2(ms / kMinMs) * 4.0);
  return std::min(index, kBucketCount - 1);
}

void Histogram::record(double ms) {
  if (std::isnan(ms)) return;
  ms = std::max(ms, 0.0);
  buckets_[static_cast<std::size_t>(bucket_index(ms))].fetch_add(
      1, std::memory_order_relaxed);
  atomic_min(min_, ms);
  atomic_max(max_, ms);
  atomic_add(sum_, ms);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min_ms() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max_ms() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p <= 0.0) return min_ms();
  if (p >= 100.0) return max_ms();
  const double target = std::max(1.0, std::ceil(p / 100.0 * n));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t in_bucket =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      const double lower = i == 0 ? 0.0 : bucket_upper_ms(i - 1);
      const double upper = bucket_upper_ms(i);
      const double fraction =
          (target - static_cast<double>(cumulative)) / in_bucket;
      const double estimate = lower + fraction * (upper - lower);
      return std::clamp(estimate, min_ms(), max_ms());
    }
    cumulative += in_bucket;
  }
  return max_ms();
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Intentionally immortal (never destroyed): metric handles are documented
  // as stable for the whole process, and they are written from places that
  // outlive every static-destruction order — pool workers woken during the
  // global pool's tear-down, atexit exporters, thread_local destructors.
  // A function-local static would be destroyed before the pool joins its
  // workers (the registry is first touched after the pool's unique_ptr
  // finishes dynamic initialization), turning those writes into
  // use-after-free.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

template <typename Metric>
Metric& find_or_create(
    std::map<std::string, std::unique_ptr<Metric>, std::less<>>& metrics,
    std::string_view name) {
  auto found = metrics.find(name);
  if (found == metrics.end()) {
    found = metrics.emplace(std::string(name), std::make_unique<Metric>())
                .first;
  }
  return *found->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  return find_or_create(histograms_, name);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histograms() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace decam::obs
