#include "metrics/fused.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>

#include "common/simd.h"

namespace decam {
namespace {

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
constexpr int kTaps = simd::kPairTaps;  // 11-tap Gaussian, sigma 1.5
constexpr int kRadius = kTaps / 2;

// Same window as metrics/ssim.cpp — normalised 11-tap Gaussian.
const std::array<double, kTaps>& ssim_window() {
  static const std::array<double, kTaps> window = [] {
    std::array<double, kTaps> w{};
    constexpr double kSigma = 1.5;
    double sum = 0.0;
    for (int i = -kRadius; i <= kRadius; ++i) {
      const double v = std::exp(-(i * i) / (2.0 * kSigma * kSigma));
      w[static_cast<std::size_t>(i + kRadius)] = v;
      sum += v;
    }
    for (double& v : w) v /= sum;
    return w;
  }();
  return window;
}

// One plane of the fused pass. `mse_sum` threads through all planes so the
// squared differences accumulate in flat data order, exactly like mse().
// Returns the plane's SSIM map sum (row-major accumulation, as in
// ssim_plane()); divide by the pixel count for the plane mean.
//
// The two Gaussian passes are the register-blocked pair_stats_hpass /
// pair_stats_vpass of common/simd.h. Every windowed sum starts at 0.0 and
// adds its taps in ascending order, and the map sum stays one sequential
// add per pixel, so blocking the loops leaves every output bit unchanged.
double fused_plane(std::span<const float> a, std::span<const float> b,
                   int width, int height, PairStatsWorkspace& ws,
                   double& mse_sum) {
  const std::array<double, kTaps>& win = ssim_window();
  const simd::SimdOps& ops = simd::ops();
  const std::size_t w_sz = static_cast<std::size_t>(width);
  // The vertical pass reads the same block of all 11 ring rows; a row
  // stride of a multiple of 4 KiB would map them onto one L1 set. Rows
  // start on a cache line (7 doubles of slack to align the ring), so no
  // 4-lane ring access straddles two.
  std::size_t stride =
      static_cast<std::size_t>(simd::pair_blocks(width)) * simd::kPairBlock;
  if (stride % (4096 / sizeof(double)) == 0) stride += simd::kPairBlock;
  ws.ring.resize(stride * kTaps + 7);
  void* ring_start = ws.ring.data();
  std::size_t ring_bytes = ws.ring.size() * sizeof(double);
  double* const ring = static_cast<double*>(std::align(
      64, stride * kTaps * sizeof(double), ring_start, ring_bytes));
  ws.prod.resize(static_cast<std::size_t>(simd::kPairStats) *
                 simd::pair_products_width(width));

  // Horizontal pass for source row y into ring slot y % 11. The MSE sum
  // rides along in the same walk, so each source pixel is read once.
  const auto compute_mid_row = [&](int y) {
    const std::size_t base = static_cast<std::size_t>(y) * w_sz;
    mse_sum = ops.pair_stats_hpass(
        ring + static_cast<std::size_t>(y % kTaps) * stride,
        ws.prod.data(), a.data() + base, b.data() + base, win.data(), width,
        mse_sum);
  };

  double total = 0.0;
  int next_mid = 0;
  std::array<const double*, kTaps> rows{};
  for (int y = 0; y < height; ++y) {
    // The vertical window of output row y reads mid rows y-5..y+5 (edge
    // replicated); rows enter the ring in order, at most 11 live at once.
    const int last_needed = std::min(y + kRadius, height - 1);
    for (; next_mid <= last_needed; ++next_mid) compute_mid_row(next_mid);
    for (int i = 0; i < kTaps; ++i) {
      const int sy = std::clamp(y + i - kRadius, 0, height - 1);
      rows[static_cast<std::size_t>(i)] =
          ring + static_cast<std::size_t>(sy % kTaps) * stride;
    }
    total = ops.pair_stats_vpass(rows.data(), win.data(), kC1, kC2, width,
                                 total);
  }
  return total;
}

}  // namespace

PairStatsWorkspace& thread_pair_stats_workspace() {
  thread_local PairStatsWorkspace workspace;
  return workspace;
}

PairStats pair_stats(const Image& a, const Image& b,
                     PairStatsWorkspace& workspace) {
  DECAM_REQUIRE(a.same_shape(b), "pair_stats: shape mismatch");
  DECAM_REQUIRE(!a.empty(), "pair_stats of empty images");
  const std::size_t n = a.plane_size();
  double mse_sum = 0.0;
  double ssim_total = 0.0;
  for (int c = 0; c < a.channels(); ++c) {
    ssim_total += fused_plane(a.plane(c), b.plane(c), a.width(), a.height(),
                              workspace, mse_sum) /
                  static_cast<double>(n);
  }
  PairStats stats;
  stats.mse = mse_sum / static_cast<double>(a.size());
  stats.ssim = ssim_total / a.channels();
  if (stats.mse == 0.0) {
    stats.psnr = std::numeric_limits<double>::infinity();
  } else {
    constexpr double peak = 255.0;
    stats.psnr = 10.0 * std::log10(peak * peak / stats.mse);
  }
  return stats;
}

PairStats pair_stats(const Image& a, const Image& b) {
  return pair_stats(a, b, thread_pair_stats_workspace());
}

}  // namespace decam
