// Counts of one bounded LRU cache (obs/lru_cache.h). Kept apart from the
// cache template so the headers that hand these out (imaging/kernels.h,
// signal/fft_plan.h) include nothing from obs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace decam {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::uint64_t resident_bytes = 0;  // heap held by the cached values
};

}  // namespace decam
