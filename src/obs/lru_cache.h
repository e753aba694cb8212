// Bounded, thread-safe LRU cache of immutable values: the one cache policy
// behind the resize kernel tables (imaging/kernels.cpp) and both FFT plan
// kinds (signal/fft_plan.cpp), one process-wide cache each.
//
// A lookup runs under one mutex; a miss builds its value outside it, so a
// slow build never blocks the hits of other threads. When two threads miss
// on one key, both build, the first insert wins and the second value is
// dropped without counting its bytes. Values are handed out as shared_ptr,
// so an eviction never invalidates a value still in use.
//
// Telemetry: a cache registers `<name>/hits|misses|evictions` counters and
// a `<name>` memory source (the `mem/<name>_bytes` gauge: the heap its
// values hold) when it is constructed. The source refers to the cache, so
// a cache lives for the whole process, as a function-local static.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/cache_stats.h"
#include "obs/memstats.h"
#include "obs/metrics.h"

namespace decam::obs {

template <typename Key, typename Value>
class LruCache {
 public:
  static constexpr std::size_t kCapacity = 64;

  /// `bytes(value)` is the heap one cached value holds.
  LruCache(const std::string& name, std::uint64_t (*bytes)(const Value&))
      : bytes_(bytes),
        hit_counter_(MetricsRegistry::instance().counter(name + "/hits")),
        miss_counter_(MetricsRegistry::instance().counter(name + "/misses")),
        eviction_counter_(
            MetricsRegistry::instance().counter(name + "/evictions")) {
    register_memory_source(name, [this] { return stats().resident_bytes; });
  }
  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value cached under `key`; on a miss, `build()`'s result, inserted
  /// at the front and evicting the least recently used value past capacity.
  template <typename Build>
  std::shared_ptr<const Value> get(const Key& key, const Build& build) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto hit = touch(key)) {
        ++stats_.hits;
        hit_counter_.add();
        return hit;
      }
      ++stats_.misses;
      miss_counter_.add();
    }
    auto value = std::make_shared<const Value>(build());
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto first = touch(key)) return first;
    lru_.push_front(key);
    map_.emplace(key, Entry{value, lru_.begin()});
    stats_.resident_bytes += bytes_(*value);
    if (map_.size() > kCapacity) {
      const auto victim = map_.find(lru_.back());
      stats_.resident_bytes -= bytes_(*victim->second.value);
      map_.erase(victim);
      lru_.pop_back();
      ++stats_.evictions;
      eviction_counter_.add();
    }
    return value;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats = stats_;
    stats.entries = map_.size();
    stats.capacity = kCapacity;
    return stats;
  }

  /// Empties the cache and zeroes its stats; the registry counters keep
  /// their totals. Values held elsewhere stay valid.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
    stats_ = {};
  }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    typename std::list<Key>::iterator lru_it;
  };

  // Under the lock: the cached value, moved to the front of the recency
  // list, or null.
  std::shared_ptr<const Value> touch(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.value;
  }

  std::uint64_t (*bytes_)(const Value&);
  Counter& hit_counter_;
  Counter& miss_counter_;
  Counter& eviction_counter_;
  mutable std::mutex mutex_;
  std::map<Key, Entry> map_;
  std::list<Key> lru_;  // front = most recently used
  CacheStats stats_;    // entries and capacity are filled in by stats()
};

}  // namespace decam::obs
