#include "imaging/filter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace decam {

namespace {

// Keep-first folds: on a tie (only +0 and -0 compare equal without being
// the same bits) the accumulator `a`, the earlier sample, wins, and a NaN
// `b` never replaces `a`. Each is one vector min/max (minps/maxps with the
// operands in this order), so the fold loops vectorize as written.
struct MinOp {
  float operator()(float a, float b) const { return b < a ? b : a; }
};
struct MaxOp {
  float operator()(float a, float b) const { return a < b ? b : a; }
};

// dst[x] = op(a[x], b[x]) for x in [0, n): a fold's first step, which
// writes its row without a copy.
template <typename Op>
void fold_pair(float* dst, const float* a, const float* b, int n, Op op) {
  for (int x = 0; x < n; ++x) dst[x] = op(a[x], b[x]);
}

// acc[x] = op(acc[x], b[x]) for x in [0, n): each later step, in place.
template <typename Op>
void fold_into(float* acc, const float* b, int n, Op op) {
  for (int x = 0; x < n; ++x) acc[x] = op(acc[x], b[x]);
}

// Output row y of the separable rank min/max, k >= 2, O(k) per sample.
// Each input row's horizontal fold (op over row[x .. x+k-1]) lands in a
// ring of k row buffers, input rows entering in order (`next` is the first
// one not yet folded); the output row folds the ring rows y .. y+k-1. A
// tap past the right or bottom edge repeats the last column or row, which
// an earlier step already folded in and a keep-first fold ignores, so both
// folds stop at the edge (the bottom row folds with itself: op(a, a) is
// a). Folding window rows top to bottom and each row left to right returns
// the window's first extremum in row-major order: the naive filter's
// sample, bit for bit.
template <typename Op>
void rank_min_max_row(const Image& img, int k, float* ring, int& next, int y,
                      int c, float* out, Op op) {
  const int w = img.width();
  const int h = img.height();
  auto slot = [&](int r) {
    return ring + static_cast<std::size_t>(r % k) * w;
  };
  const int last = std::min(y + k - 1, h - 1);
  for (; next <= last; ++next) {
    const float* row = img.row(next, c).data();
    float* dst = slot(next);
    fold_pair(dst, row, row + 1, w - 1, op);
    dst[w - 1] = row[w - 1];
    for (int d = 2; d < std::min(k, w); ++d) {
      fold_into(dst, row + d, w - d, op);
    }
  }
  fold_pair(out, slot(y), slot(std::min(y + 1, last)), w, op);
  for (int r = y + 2; r <= last; ++r) fold_into(out, slot(r), w, op);
}

// Exact median via an incrementally maintained sorted window: sliding one
// column in/out of the k x k window costs k binary-search erases + k
// binary-search inserts into a k^2 array (tiny memmoves) instead of
// rebuilding and nth_element-ing the window per pixel. The median is always
// an element of the input, so results match the naive filter bit-exactly —
// including the duplicated values clamped borders contribute. It serves
// every median the 3x3 network below does not: images off the 8-bit grid
// and every k but 3. A pixel costs k searches and moves within a window of
// k^2 samples, so the cost grows with k^2. It stores every output sample,
// so it also overwrites whatever an abandoned network pass left.
//
// The window is kept in window_less order: numbers ascending, every NaN
// above them all. operator< is no order once a NaN is in the window (its
// searches could not find the NaN again, and a slide could then move
// samples past the window's end); window_less is a total order, and
// without NaN it is operator<, so no other output changes.
bool window_less(float a, float b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

void rank_median_exact(const Image& img, int k, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const std::size_t window_size = static_cast<std::size_t>(k) * k;
  const std::size_t mid = window_size / 2;
  std::vector<float> window;
  window.reserve(window_size);
  std::vector<const float*> rows(static_cast<std::size_t>(k));

  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      for (int dy = 0; dy < k; ++dy) {
        rows[static_cast<std::size_t>(dy)] =
            img.row(std::min(y + dy, h - 1), c).data();
      }
      // Build the x = 0 window sorted.
      window.clear();
      for (int dx = 0; dx < k; ++dx) {
        const int col = std::min(dx, w - 1);
        for (int dy = 0; dy < k; ++dy) {
          window.push_back(rows[static_cast<std::size_t>(dy)][col]);
        }
      }
      std::sort(window.begin(), window.end(), window_less);
      float* out_row = out.row(y, c).data();
      out_row[0] = window[mid];
      for (int x = 1; x < w; ++x) {
        // Slide: column x-1 leaves, column x+k-1 (clamped) enters. Each
        // leave/enter pair is one replace-and-rotate (a single short
        // memmove) rather than a separate erase + insert.
        const int col_out = x - 1;
        const int col_in = std::min(x + k - 1, w - 1);
        for (int dy = 0; dy < k; ++dy) {
          const float leave = rows[static_cast<std::size_t>(dy)][col_out];
          const float enter = rows[static_cast<std::size_t>(dy)][col_in];
          const auto pos = std::lower_bound(window.begin(), window.end(),
                                            leave, window_less);
          if (!window_less(enter, leave)) {
            const auto dst =
                std::lower_bound(pos + 1, window.end(), enter, window_less);
            std::move(pos + 1, dst, pos);
            *(dst - 1) = enter;
          } else {
            const auto dst =
                std::lower_bound(window.begin(), pos, enter, window_less);
            std::move_backward(dst, pos, pos + 1);
            *dst = enter;
          }
        }
        out_row[x] = window[mid];
      }
    }
  }
}

std::atomic<std::uint64_t> g_rank_scratch_bytes{0};

}  // namespace

// One thread's rank scratch: the min/max ring of k input-row folds, the
// row that row() hands out, and the k = 3 median's ring of three byte rows.
struct RankScratch {
  std::vector<float, DefaultInitAllocator<float>> ring;
  std::vector<float, DefaultInitAllocator<float>> row;
  std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>> bytes;
  bool busy = false;
  obs::ScratchShare share{"rank_scratch", g_rank_scratch_bytes};

  void publish() {
    share.set((ring.capacity() + row.capacity()) * sizeof(float) +
              bytes.capacity());
  }
};

namespace {

RankScratch& thread_rank_scratch() {
  thread_local RankScratch scratch;
  return scratch;
}

// ------------------------------------------------ 3x3 selection network --
//
// The k = 3 Grid8 median in one pass per channel. Each input row is checked
// against the 8-bit grid and converted to bytes as it enters a ring of
// three rows (SimdOps::grid8_u8): rows 0 and 1 before output row 0, row
// y + 2 before output row y. The network (SimdOps::median3_u8: column
// sort, then med3(max3(lo), med3(mid), min3(hi))) writes each output row
// straight from the ring, the bottom rows clamped to h - 1. Min/max only,
// so every output is one of the window's own samples, and the byte is the
// sample on the grid. A row off the grid abandons the pass and returns
// false; the output rows written so far are then rewritten by the exact
// route.
bool rank_median3_grid8(const Image& img, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const simd::SimdOps& ops = simd::ops();
  RankScratch& scratch = thread_rank_scratch();
  size_exactly(scratch.bytes, 3 * static_cast<std::size_t>(w));
  scratch.publish();
  const auto slot = [&](int r) {
    return scratch.bytes.data() + static_cast<std::size_t>(r % 3) * w;
  };
  const auto enter = [&](int r, int c) {
    return ops.grid8_u8(slot(r), img.row(r, c).data(), w);
  };
  for (int c = 0; c < img.channels(); ++c) {
    if (!enter(0, c) || (h > 1 && !enter(1, c))) return false;
    for (int y = 0; y < h; ++y) {
      if (y + 2 < h && !enter(y + 2, c)) return false;
      ops.median3_u8(out.row(y, c).data(), slot(y),
                     slot(std::min(y + 1, h - 1)),
                     slot(std::min(y + 2, h - 1)), w);
    }
  }
  return true;
}

// Two routes: the selection network for a Grid8 image at k = 3, the sorted
// window for everything else, an image the network abandoned included.
void rank_median(const Image& img, int k, Image& out) {
  static obs::Counter& grid8 =
      obs::MetricsRegistry::instance().counter("rank_median/grid8");
  static obs::Counter& exact =
      obs::MetricsRegistry::instance().counter("rank_median/exact");
  if (k == 3 && rank_median3_grid8(img, out)) {
    grid8.add();
    return;
  }
  exact.add();
  rank_median_exact(img, k, out);
}

}  // namespace

MedianPath classify_median_path(const Image& img) {
  // The network's own row check, without the network.
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(img.width()));
  const simd::SimdOps& ops = simd::ops();
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      if (!ops.grid8_u8(bytes.data(), img.row(y, c).data(), img.width())) {
        return MedianPath::Exact;
      }
    }
  }
  return MedianPath::Grid8;
}

RankRows::RankRows(const Image& img, int k, RankOp op)
    : RowSource(img.width(), img.height(), img.channels()),
      img_(img),
      k_(k),
      op_(op) {
  DECAM_REQUIRE(!img.empty(), "rank filter of empty image");
  DECAM_REQUIRE(k >= 1, "window size must be >= 1");
  DECAM_REQUIRE(op != RankOp::Median, "rank rows stream min and max only");
  RankScratch& scratch = thread_rank_scratch();
  DECAM_ASSERT(!scratch.busy);
  scratch_ = &scratch;
  const std::size_t w = static_cast<std::size_t>(img.width());
  size_exactly(scratch.ring, static_cast<std::size_t>(k) * w);
  size_exactly(scratch.row, w);
  scratch.publish();
  scratch.busy = true;
}

RankRows::~RankRows() { scratch_->busy = false; }

void RankRows::write_row(int y, int c, float* out) {
  if (y == 0) {
    channel_ = c;
    next_out_ = next_in_ = 0;
  }
  DECAM_ASSERT(c == channel_ && y == next_out_ && y < height());
  ++next_out_;
  if (k_ == 1) {
    const float* row = img_.row(y, c).data();
    std::copy(row, row + width(), out);
  } else if (op_ == RankOp::Min) {
    rank_min_max_row(img_, k_, scratch_->ring.data(), next_in_, y, c, out,
                     MinOp{});
  } else {
    rank_min_max_row(img_, k_, scratch_->ring.data(), next_in_, y, c, out,
                     MaxOp{});
  }
}

const float* RankRows::row(int y, int c) {
  if (k_ == 1) return img_.row(y, c).data();
  float* out = scratch_->row.data();
  write_row(y, c, out);
  return out;
}

Image rank_filter(const Image& img, int k, RankOp op) {
  DECAM_SPAN("imaging/rank_filter");
  DECAM_REQUIRE(!img.empty(), "rank_filter of empty image");
  DECAM_REQUIRE(k >= 1, "window size must be >= 1");
  if (k == 1) return img;  // 1x1 window: identity for min/median/max
  // Every route below stores each output sample once.
  Image out = Image::uninitialized(img.width(), img.height(), img.channels());
  if (op == RankOp::Median) {
    rank_median(img, k, out);
    return out;
  }
  RankRows rows(img, k, op);
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      rows.write_row(y, c, out.row(y, c).data());
    }
  }
  return out;
}

namespace {

// Horizontal then vertical pass with an arbitrary normalised 1-D kernel.
//
// Accumulator policy (see filter.h): per output sample, taps are multiplied
// and summed in DOUBLE precision in ascending tap order, and the total is
// truncated to float once. Both passes read from edge-padded contiguous
// scanlines (horizontal: an explicit padded copy of the row; vertical: a
// clamped row pointer) and run each tap as one vectorized row sweep
// (simd::ops().tap_accumulate_f32 — float product, double accumulate). Each
// accumulator still receives its taps in ascending offset order starting
// from 0.0, so the arithmetic sequence per pixel is exactly the one the
// original at_clamped formulation produced, keeping this path
// bit-compatible with it on every dispatch variant.
Image separable_convolve(const Image& img, const std::vector<float>& kernel) {
  const int radius = static_cast<int>(kernel.size() / 2);
  const int w = img.width();
  const int h = img.height();
  const int taps = static_cast<int>(kernel.size());
  const simd::SimdOps& ops = simd::ops();

  Image mid(w, h, img.channels());
  std::vector<float> pad(static_cast<std::size_t>(w + 2 * radius));
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      const float* row = img.row(y, c).data();
      std::fill(pad.begin(), pad.begin() + radius, row[0]);
      std::copy(row, row + w, pad.begin() + radius);
      std::fill(pad.begin() + radius + w, pad.end(), row[w - 1]);
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int i = 0; i < taps; ++i) {
        ops.tap_accumulate_f32(acc.data(), pad.data() + i,
                               kernel[static_cast<std::size_t>(i)], w);
      }
      ops.narrow_f64_f32(mid.row(y, c).data(), acc.data(), w);
    }
  }

  Image out(w, h, img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int i = 0; i < taps; ++i) {
        const float* mid_row =
            mid.row(std::clamp(y + i - radius, 0, h - 1), c).data();
        ops.tap_accumulate_f32(acc.data(), mid_row,
                               kernel[static_cast<std::size_t>(i)], w);
      }
      ops.narrow_f64_f32(out.row(y, c).data(), acc.data(), w);
    }
  }
  return out;
}

}  // namespace

Image gaussian_blur(const Image& img, double sigma) {
  DECAM_SPAN("imaging/gaussian_blur");
  DECAM_REQUIRE(sigma > 0.0, "sigma must be positive");
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-(i * i) / (2.0 * sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = static_cast<float>(w);
    sum += w;
  }
  for (float& w : kernel) w = static_cast<float>(w / sum);
  return separable_convolve(img, kernel);
}

}  // namespace decam
