// Spatial filters. rank_filter() dispatches a k x k rank operation —
// minimum (the paper's filtering detection method, Section III-B; its
// Algorithm 2 uses k = 2), median, or maximum (the paper's Fig. 4
// comparison and the ablation benches sweep all three) — onto the
// per-operation paths below: one direct separable pass for min/max; for
// median a 3x3 min/max selection network, a running-histogram median, or
// the exact sorted-window fallback. k = 1 returns the input. Box/Gaussian
// blur support the synthetic dataset generator and robustness experiments.
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
// Accumulator policy: every weighted filter accumulates in double and
// truncates to float exactly once per output pixel. For the separable
// convolutions (gaussian_blur) the per-pixel sequence of operations —
// float tap-times-sample products, applied in ascending offset order,
// accumulated in double, one final narrowing cast — is part of the
// contract: rewrites may change memory traversal but must keep it, so
// outputs stay bit-identical across implementations. Rank filters select an
// actual input sample and are bit-exact by construction. box_blur uses a
// running sum (O(1) per pixel regardless of k), which re-associates the
// additions; its outputs may differ from the naive sum by a last-ulp
// rounding step, i.e. a max abs error on the order of 1e-6 of full scale.
//
// Float -> grid eligibility (median): Image stores floats, but the fast
// medians work on a finite value grid, so rank_filter classifies the image
// once per call (classify_median_path). An image whose values are all
// exactly integral in [0, 255] is Grid8: k = 3 runs the selection network
// (column sort, then med3(max3(lo), med3(mid), min3(hi))) on the u8
// relabeling, every other k the 8-bit Perreault–Hébert histogram. One
// whose values are all exactly i/256 for integral i in [0, 65535] (v * 256
// is a power-of-two scale, so the test and the relabeling are both exact)
// takes the 16-bit histogram path; anything else — including NaN, infinite,
// negative or out-of-range values — falls back to the exact sorted-window
// median. The classifier runs in blocks of kMedianClassifyBlock samples:
// each block is a branch-free pass of compares (integrality tested as
// (x + 2^23) - 2^23 == x, no int casts), and the scan stops only between
// blocks, once a block leaves the 16-bit grid. Every path returns an
// actual sample of the window, and u8/bin -> float reconstruction is exact
// on both grids, so the result is bit-identical to the naive filter no
// matter which path ran. The rank_median/{grid8, grid16, exact} counters
// record the routing.
#pragma once

#include <cstddef>

#include "imaging/image.h"

namespace decam {

enum class RankOp { Min, Median, Max };

/// Which median implementation an image is eligible for (see the
/// float -> grid eligibility contract above).
enum class MedianPath { Grid8, Grid16, Exact };

/// Samples per classify_median_path block (the early-exit granularity).
inline constexpr std::size_t kMedianClassifyBlock = 1024;

/// One-pass classifier over every plane; exposed for tests and benches.
MedianPath classify_median_path(const Image& img);

/// k x k rank filter (k >= 1). Each output pixel is the min/median/max of
/// the window anchored at that pixel, per channel.
Image rank_filter(const Image& img, int k, RankOp op);

inline Image median_filter(const Image& img, int k = 3) {
  return rank_filter(img, k, RankOp::Median);
}

/// k x k box (mean) blur with edge replication; k must be odd.
Image box_blur(const Image& img, int k);

/// Separable Gaussian blur with standard deviation `sigma` (> 0); the
/// kernel radius is ceil(3 * sigma).
Image gaussian_blur(const Image& img, double sigma);

}  // namespace decam
