// The one LRU cache policy (obs/lru_cache.h) on a small test-only cache:
// resident bytes and their gauge, the registry counters, recency order,
// racing misses and values held across their own eviction. Each test owns a
// function-local static cache under its own name, because a cache's memory
// source refers to it for the rest of the process.
#include "obs/lru_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace decam::obs {
namespace {

using Cache = LruCache<int, std::vector<int>>;
constexpr int kCapacity = static_cast<int>(Cache::kCapacity);

std::uint64_t vector_bytes(const std::vector<int>& v) {
  return v.capacity() * sizeof(int);
}

// Key k caches k + 1 ints, so every key has its own byte count.
std::shared_ptr<const std::vector<int>> get(Cache& cache, int key,
                                            bool* built = nullptr) {
  return cache.get(key, [&] {
    if (built != nullptr) *built = true;
    return std::vector<int>(static_cast<std::size_t>(key) + 1, key);
  });
}

double memory_gauge(const std::string& name) {
  sample_memory_gauges();
  return MetricsRegistry::instance().gauge("mem/" + name + "_bytes").value();
}

TEST(LruCache, ResidentBytesFollowInsertEvictionAndClear) {
  static Cache cache("lru_test_bytes", vector_bytes);
  const std::uint64_t key0_bytes = vector_bytes(*get(cache, 0));
  std::uint64_t expected = key0_bytes;
  for (int key = 1; key < kCapacity; ++key) {
    expected += vector_bytes(*get(cache, key));
    ASSERT_EQ(cache.stats().resident_bytes, expected) << "key " << key;
  }
  EXPECT_EQ(memory_gauge("lru_test_bytes"), static_cast<double>(expected));

  // Key 0 is the least recently used: inserting one more key evicts it.
  expected += vector_bytes(*get(cache, kCapacity)) - key0_bytes;
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, expected);
  EXPECT_EQ(memory_gauge("lru_test_bytes"), static_cast<double>(expected));

  cache.clear();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(memory_gauge("lru_test_bytes"), 0.0);
}

TEST(LruCache, CountersAdvanceWithStatsAndSurviveClear) {
  static Cache cache("lru_test_counters", vector_bytes);
  MetricsRegistry& registry = MetricsRegistry::instance();
  const Counter& hits = registry.counter("lru_test_counters/hits");
  const Counter& misses = registry.counter("lru_test_counters/misses");
  const Counter& evictions = registry.counter("lru_test_counters/evictions");

  for (int key = 0; key <= kCapacity; ++key) get(cache, key);
  get(cache, kCapacity);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, Cache::kCapacity + 1);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, Cache::kCapacity);
  EXPECT_EQ(stats.capacity, Cache::kCapacity);
  EXPECT_EQ(hits.value(), stats.hits);
  EXPECT_EQ(misses.value(), stats.misses);
  EXPECT_EQ(evictions.value(), stats.evictions);

  cache.clear();
  stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions + stats.entries, 0u);
  EXPECT_EQ(hits.value(), 1u);
  EXPECT_EQ(misses.value(), Cache::kCapacity + 1);
  EXPECT_EQ(evictions.value(), 1u);

  get(cache, 0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(misses.value(), Cache::kCapacity + 2);
}

TEST(LruCache, EvictsTheLeastRecentlyUsedKey) {
  static Cache cache("lru_test_order", vector_bytes);
  for (int key = 0; key < kCapacity; ++key) get(cache, key);
  bool built = false;
  get(cache, 0, &built);  // key 0 becomes the most recent, key 1 the least
  ASSERT_FALSE(built);
  get(cache, kCapacity);
  ASSERT_EQ(cache.stats().evictions, 1u);

  get(cache, 0, &built);
  EXPECT_FALSE(built) << "key 0 was touched and must stay resident";
  get(cache, 1, &built);
  EXPECT_TRUE(built) << "key 1 was the least recently used";
}

TEST(LruCache, RacingMissesShareTheFirstInsert) {
  static Cache cache("lru_test_race", vector_bytes);
  // Neither build returns before both threads are inside one, so both
  // lookups miss and both values are built.
  std::latch both_building(2);
  const auto build = [&] {
    both_building.arrive_and_wait();
    return std::vector<int>(32, 7);
  };
  std::shared_ptr<const std::vector<int>> a;
  std::shared_ptr<const std::vector<int>> b;
  std::thread first([&] { a = cache.get(5, build); });
  std::thread second([&] { b = cache.get(5, build); });
  first.join();
  second.join();

  EXPECT_EQ(a.get(), b.get());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, vector_bytes(*a));
}

TEST(LruCache, HeldValueOutlivesItsEviction) {
  static Cache cache("lru_test_held", vector_bytes);
  const auto held = get(cache, 0);
  for (int key = 1; key <= kCapacity; ++key) get(cache, key);
  ASSERT_EQ(cache.stats().evictions, 1u);

  EXPECT_EQ(*held, std::vector<int>(1, 0));
  bool built = false;
  const auto again = get(cache, 0, &built);
  EXPECT_TRUE(built) << "key 0 was evicted";
  EXPECT_NE(again.get(), held.get());
  EXPECT_EQ(*again, *held);
}

}  // namespace
}  // namespace decam::obs
