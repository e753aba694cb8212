#include "metrics/fused.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/simd.h"
#include "obs/memstats.h"

namespace decam {
namespace {

std::atomic<std::uint64_t> g_workspace_bytes{0};

// The calling thread's scratch for the walk, sized on first use and reused
// across images. `ring` holds the horizontal window sums of the 11 most
// recent source rows, pixel-blocked [block][stat][lane] with the active
// table's lanes (common/simd.h), with a row stride kept off multiples of
// 4 KiB. The
// products the horizontal taps read (a, b, a², b², ab as doubles) live in
// pair_stats_hpass's own strip buffer, one L1-sized strip at a time.
struct PairStatsWorkspace {
  std::vector<double> ring;
  obs::ScratchShare share{"pair_stats_workspace", g_workspace_bytes};
};

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
double fused_plane(const Image& a, RowSource& b, int c,
                   PairStatsWorkspace& ws, double& mse_sum) {
  const int width = a.width();
  const int height = a.height();
  const std::array<double, kTaps>& win = ssim_window();
  const simd::SimdOps& ops = simd::ops();
  // The ring's blocks are the active table's: 4 or 8 pixels
  // (SimdOps::pair_lanes). The vertical pass reads the same block of all
  // 11 ring rows; a row stride of a multiple of 4 KiB would map them onto
  // one L1 set. Rows start on a cache line (7 doubles of slack to align the
  // ring), and a block is a whole number of lane vectors, so no ring access
  // straddles two lines.
  const std::size_t block =
      static_cast<std::size_t>(simd::kPairStats * ops.pair_lanes);
  std::size_t stride = simd::pair_row_doubles(width, ops.pair_lanes);
  if (stride % (4096 / sizeof(double)) == 0) stride += block;
  ws.ring.resize(stride * kTaps + 7);
  void* ring_start = ws.ring.data();
  std::size_t ring_bytes = ws.ring.size() * sizeof(double);
  double* const ring = static_cast<double*>(std::align(
      64, stride * kTaps * sizeof(double), ring_start, ring_bytes));

  // Horizontal pass for source row y into ring slot y % 11. The MSE sum
  // rides along in the same walk, so each source pixel is read once, and
  // b's rows are asked for in planar order.
  const auto compute_mid_row = [&](int y) {
    mse_sum = ops.pair_stats_hpass(
        ring + static_cast<std::size_t>(y % kTaps) * stride,
        a.row(y, c).data(), b.row(y, c), win.data(), width, mse_sum);
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

PairStats pair_stats(const Image& a, RowSource& b) {
  DECAM_REQUIRE(b.same_shape(a), "pair_stats: shape mismatch");
  DECAM_REQUIRE(!a.empty(), "pair_stats of empty images");
  thread_local PairStatsWorkspace workspace;
  const std::size_t n = a.plane_size();
  double mse_sum = 0.0;
  double ssim_total = 0.0;
  for (int c = 0; c < a.channels(); ++c) {
    ssim_total += fused_plane(a, b, c, workspace, mse_sum) /
                  static_cast<double>(n);
  }
  workspace.share.set(workspace.ring.capacity() * sizeof(double));
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
  PlaneRows rows(b);
  return pair_stats(a, rows);
}

}  // namespace decam
