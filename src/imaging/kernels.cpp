#include "imaging/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <tuple>

#include "obs/lru_cache.h"

namespace decam {

const char* to_string(ScaleAlgo algo) {
  switch (algo) {
    case ScaleAlgo::Nearest: return "nearest";
    case ScaleAlgo::Bilinear: return "bilinear";
    case ScaleAlgo::Bicubic: return "bicubic";
    case ScaleAlgo::Area: return "area";
    case ScaleAlgo::Lanczos4: return "lanczos4";
  }
  return "?";
}

double cubic_weight(double t) {
  // Keys (1981) cubic convolution with a = -0.75, the value OpenCV uses.
  constexpr double a = -0.75;
  t = std::fabs(t);
  if (t <= 1.0) return ((a + 2.0) * t - (a + 3.0)) * t * t + 1.0;
  if (t < 2.0) return (((t - 5.0) * t + 8.0) * t - 4.0) * a;
  return 0.0;
}

double lanczos4_weight(double t) {
  constexpr double a = 4.0;
  t = std::fabs(t);
  if (t < 1e-9) return 1.0;
  if (t >= a) return 0.0;
  const double pt = std::numbers::pi * t;
  return a * std::sin(pt) * std::sin(pt / a) / (pt * pt);
}

namespace {

// Appends one output sample's tap list to the flattened table: sorts by
// source index, coalesces duplicates produced by border clamping (one entry
// per source index, weights summed), and checks the partition-of-unity
// invariant survives the merge.
void push_row(KernelTable& table, std::vector<Tap>& row) {
  DECAM_ASSERT(!row.empty());
  std::sort(row.begin(), row.end(),
            [](const Tap& a, const Tap& b) { return a.index < b.index; });
  std::size_t w_idx = 0;
  for (std::size_t r = 1; r < row.size(); ++r) {
    if (row[r].index == row[w_idx].index) {
      row[w_idx].weight += row[r].weight;
    } else {
      row[++w_idx] = row[r];
    }
  }
  row.resize(w_idx + 1);
  double sum = 0.0;
  for (const Tap& tap : row) sum += tap.weight;
  DECAM_ASSERT(std::fabs(sum - 1.0) < 1e-4);
  table.taps.insert(table.taps.end(), row.begin(), row.end());
  table.offsets.push_back(static_cast<int>(table.taps.size()));
}

KernelTable begin_table(int in_size, int out_size, int taps_guess) {
  KernelTable table;
  table.in_size = in_size;
  table.out_size = out_size;
  table.offsets.reserve(static_cast<std::size_t>(out_size) + 1);
  table.offsets.push_back(0);
  table.taps.reserve(static_cast<std::size_t>(out_size) * taps_guess);
  return table;
}

// Generic windowed-kernel table: fixed support, no anti-alias widening.
KernelTable windowed_table(int in_size, int out_size, int support,
                           double (*kernel)(double)) {
  KernelTable table = begin_table(in_size, out_size, 2 * support);
  const double scale = static_cast<double>(in_size) / out_size;
  std::vector<Tap> row;
  row.reserve(static_cast<std::size_t>(2 * support));
  for (int o = 0; o < out_size; ++o) {
    const double center = (o + 0.5) * scale - 0.5;
    const int first = static_cast<int>(std::floor(center)) - support + 1;
    row.clear();
    double sum = 0.0;
    for (int i = first; i < first + 2 * support; ++i) {
      const double w = kernel(center - i);
      if (w == 0.0) continue;
      const int clamped = std::clamp(i, 0, in_size - 1);
      row.push_back({clamped, static_cast<float>(w)});
      sum += w;
    }
    DECAM_ASSERT(!row.empty() && sum > 0.0);
    for (Tap& tap : row) tap.weight = static_cast<float>(tap.weight / sum);
    push_row(table, row);
  }
  return table;
}

double linear_weight(double t) {
  t = std::fabs(t);
  return t < 1.0 ? 1.0 - t : 0.0;
}

KernelTable nearest_table(int in_size, int out_size) {
  KernelTable table = begin_table(in_size, out_size, 1);
  const double scale = static_cast<double>(in_size) / out_size;
  std::vector<Tap> row(1);
  for (int o = 0; o < out_size; ++o) {
    // cv::resize INTER_NEAREST: sx = floor(dx * scale).
    const int src = std::clamp(static_cast<int>(std::floor(o * scale)), 0,
                               in_size - 1);
    row[0] = {src, 1.0f};
    push_row(table, row);
    row.resize(1);
  }
  return table;
}

KernelTable area_table(int in_size, int out_size) {
  const double scale = static_cast<double>(in_size) / out_size;
  if (out_size >= in_size) {
    // Upscaling: INTER_AREA degenerates to bilinear, as in OpenCV.
    return windowed_table(in_size, out_size, 1, linear_weight);
  }
  KernelTable table =
      begin_table(in_size, out_size, static_cast<int>(scale) + 2);
  std::vector<Tap> row;
  for (int o = 0; o < out_size; ++o) {
    const double lo = o * scale;
    const double hi = (o + 1) * scale;
    row.clear();
    const int first = static_cast<int>(std::floor(lo));
    const int last = std::min(static_cast<int>(std::ceil(hi)), in_size);
    double sum = 0.0;
    for (int i = first; i < last; ++i) {
      const double cover =
          std::min<double>(hi, i + 1) - std::max<double>(lo, i);
      if (cover <= 0.0) continue;
      row.push_back({std::clamp(i, 0, in_size - 1),
                     static_cast<float>(cover)});
      sum += cover;
    }
    DECAM_ASSERT(!row.empty() && sum > 0.0);
    for (Tap& tap : row) tap.weight = static_cast<float>(tap.weight / sum);
    push_row(table, row);
  }
  return table;
}

}  // namespace

KernelTable KernelTable::from_rows(int in_size,
                                   std::span<const std::vector<Tap>> rows) {
  KernelTable table;
  table.in_size = in_size;
  table.out_size = static_cast<int>(rows.size());
  table.offsets.reserve(rows.size() + 1);
  table.offsets.push_back(0);
  for (const std::vector<Tap>& row : rows) {
    DECAM_ASSERT(!row.empty());
    table.taps.insert(table.taps.end(), row.begin(), row.end());
    table.offsets.push_back(static_cast<int>(table.taps.size()));
  }
  return table;
}

KernelTable make_kernel_table(int in_size, int out_size, ScaleAlgo algo) {
  DECAM_REQUIRE(in_size > 0 && out_size > 0, "sizes must be positive");
  switch (algo) {
    case ScaleAlgo::Nearest:
      return nearest_table(in_size, out_size);
    case ScaleAlgo::Bilinear:
      return windowed_table(in_size, out_size, 1, linear_weight);
    case ScaleAlgo::Bicubic:
      return windowed_table(in_size, out_size, 2, cubic_weight);
    case ScaleAlgo::Area:
      return area_table(in_size, out_size);
    case ScaleAlgo::Lanczos4:
      return windowed_table(in_size, out_size, 4, lanczos4_weight);
  }
  DECAM_ASSERT(false);
}

// ----------------------------------------------------------------- cache --

namespace {

// Heap actually held by a cached table (the vectors' allocations; the
// struct itself lives inside the shared_ptr control block).
std::uint64_t table_bytes(const KernelTable& table) {
  return table.taps.capacity() * sizeof(Tap) +
         table.offsets.capacity() * sizeof(int);
}

// Battery/pipeline runs resize every image in a dataset with the same few
// geometries; 64 entries comfortably covers a sweep over all algorithms at
// several sizes while bounding memory (a table is ~out_size * support * 8
// bytes).
using TableCache = obs::LruCache<std::tuple<int, int, ScaleAlgo>, KernelTable>;

TableCache& kernel_cache() {
  static TableCache cache("kernel_cache", table_bytes);
  return cache;
}

}  // namespace

std::shared_ptr<const KernelTable> get_kernel_table(int in_size, int out_size,
                                                    ScaleAlgo algo) {
  DECAM_REQUIRE(in_size > 0 && out_size > 0, "sizes must be positive");
  return kernel_cache().get({in_size, out_size, algo}, [&] {
    return make_kernel_table(in_size, out_size, algo);
  });
}

KernelCacheStats kernel_cache_stats() { return kernel_cache().stats(); }

void clear_kernel_cache() { kernel_cache().clear(); }

void apply_kernel(const KernelTable& table, const float* in, int in_stride,
                  float* out, int out_stride) {
  const Tap* tap = table.taps.data();
  if (in_stride == 1 && out_stride == 1) {
    // Contiguous fast path — the layout both resize passes use. Taps of one
    // output sample have consecutive source indices except where border
    // clamping coalesced them, so the inner loop reads `in` sequentially.
    for (int o = 0; o < table.out_size; ++o) {
      const Tap* end =
          table.taps.data() + table.offsets[static_cast<std::size_t>(o) + 1];
      double acc = 0.0;
      for (; tap != end; ++tap) {
        acc += static_cast<double>(tap->weight) * in[tap->index];
      }
      out[o] = static_cast<float>(acc);
    }
    return;
  }
  for (int o = 0; o < table.out_size; ++o) {
    const Tap* end =
        table.taps.data() + table.offsets[static_cast<std::size_t>(o) + 1];
    double acc = 0.0;
    for (; tap != end; ++tap) {
      acc += static_cast<double>(tap->weight) *
             in[static_cast<std::size_t>(tap->index) * in_stride];
    }
    out[static_cast<std::size_t>(o) * out_stride] = static_cast<float>(acc);
  }
}

}  // namespace decam
