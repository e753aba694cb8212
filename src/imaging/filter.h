// Spatial filters. rank_filter() dispatches a k x k rank operation —
// minimum (the paper's filtering detection method, Section III-B; its
// Algorithm 2 uses k = 2), median, or maximum (the paper's Fig. 4
// comparison and the ablation benches sweep all three) — onto the
// per-operation paths below: one direct separable pass for min/max; for
// median a 3x3 min/max selection network or the exact sorted window. k = 1
// returns the input. The Gaussian blur supports the synthetic dataset
// generator, the `gauss` defense and the robustness experiments.
//
// Min/max: each row's k-tap fold goes into a ring of k row buffers, and
// each output row folds k ring rows, so the cost is about 2(k - 1) vector
// min/max steps per sample and grows with k (the detector and Fig. 4 use
// k = 2 and 3; no caller runs min/max above k = 9). The folds keep the
// earlier operand on a tie, rows top to bottom and each row left to right,
// so the result is the window's first extremum in row-major order — the
// naive filter's sample, bit for bit, down to the sign of a zero. NaN:
// no fold lets a NaN replace what it holds, and a held NaN stays. So the
// result is NaN exactly when the window's anchor sample (x, y) is NaN;
// otherwise it is the min/max of the non-NaN samples of those window rows
// whose leftmost sample (x, y + dy) is not NaN — a row that starts with
// NaN drops out whole, any other NaN is skipped. (A naive
// std::min_element window differs only there: it skips that row's NaN and
// keeps the rest of the row.) Decoded images never hold NaN.
//
// Border handling: edge replication (same as the clamped taps used by the
// scalers), window anchored at the top-left as in erode/dilate with an
// even-sized structuring element — a 2x2 window at (x, y) covers
// {x, x+1} x {y, y+1}.
//
// Accumulator policy: the Gaussian blur accumulates in double and
// truncates to float exactly once per output pixel. Its per-pixel sequence
// of operations — float tap-times-sample products, applied in ascending
// offset order, accumulated in double, one final narrowing cast — is part
// of the contract: rewrites may change memory traversal but must keep it,
// so outputs stay bit-identical across implementations. Rank filters select
// an actual input sample and are bit-exact by construction.
//
// Median routes: Image stores floats, but the 3x3 network works on the
// 8-bit value grid. A k = 3 median runs one pass per channel: each input
// row is checked against the grid (every sample exactly integral in
// [0, 255], tested as (x + 2^23) - 2^23 == x plus the range compares, no
// int casts) and converted to bytes as it enters a ring of three rows, and
// the selection network (column sort, then med3(max3(lo), med3(mid),
// min3(hi))) writes each output row from that ring. Both steps are SimdOps
// entries (grid8_u8 and median3_u8, common/simd.h). A row off the grid —
// fractional, negative, out-of-range, infinite or NaN values — abandons
// the pass, and the whole image takes the exact sorted-window median,
// which rewrites every output sample; so does every other k, at a cost
// that grows with k^2. Both routes return an actual sample of the window,
// and u8 -> float reconstruction is exact on the grid, so the result is
// bit-identical to the naive filter whichever route ran. The
// rank_median/{grid8, exact} counters record the route that produced the
// output (an abandoned pass counts as exact). NaN: the sorted window orders
// NaN above every number, so a median is NaN exactly when at least
// k^2 - floor(k^2 / 2) of its window's samples are NaN; otherwise it is
// the median with each NaN counted as larger than every number.
#pragma once

#include "imaging/image.h"

namespace decam {

enum class RankOp { Min, Median, Max };

/// Which k = 3 median route an image takes (see the median routes above).
enum class MedianPath { Grid8, Exact };

/// The route rank_filter(img, 3, RankOp::Median) takes: the network's row
/// check over every row, without the network. For tests and benches; the
/// filter itself checks rows as they enter its ring.
MedianPath classify_median_path(const Image& img);

struct RankScratch;

/// rank_filter(img, k, op) for a Min or Max, one output row at a time: the
/// direct separable fold above, its ring of k row buffers in the calling
/// thread's rank scratch (kept across calls, counted as
/// `mem/rank_scratch_bytes`). rank_filter() stores every row into a plane;
/// the filtering detector hands each row straight to its reduction, so
/// that plane is never stored. The ring only moves forward, so rows must
/// come in the planar order RowSource states. k = 1 hands out the input's
/// own rows. One RankRows per thread at a time: a second one while the
/// first is alive is a library bug and aborts.
class RankRows final : public RowSource {
 public:
  RankRows(const Image& img, int k, RankOp op);
  ~RankRows();
  RankRows(const RankRows&) = delete;
  RankRows& operator=(const RankRows&) = delete;

  /// The row in the scratch's row buffer (the input's row when k = 1).
  const float* row(int y, int c) override;
  /// Writes row y of channel c to `out` (width() floats).
  void write_row(int y, int c, float* out);

 private:
  const Image& img_;
  int k_;
  RankOp op_;
  RankScratch* scratch_;
  int channel_ = 0;  // the channel the ring holds rows of
  int next_out_ = 0;  // the next output row of that channel
  int next_in_ = 0;  // the first input row not yet folded into the ring
};

/// k x k rank filter (k >= 1). Each output pixel is the min/median/max of
/// the window anchored at that pixel, per channel.
Image rank_filter(const Image& img, int k, RankOp op);

inline Image median_filter(const Image& img, int k = 3) {
  return rank_filter(img, k, RankOp::Median);
}

/// Separable Gaussian blur with standard deviation `sigma` (> 0); the
/// kernel radius is ceil(3 * sigma).
Image gaussian_blur(const Image& img, double sigma);

}  // namespace decam
