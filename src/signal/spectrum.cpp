#include "signal/spectrum.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "obs/memstats.h"

namespace decam {
namespace {

// Bytes held by every live thread's spectrum workspace, for the
// `mem/spectrum_workspace_bytes` gauge. Each thread reconciles its own
// contribution against this total when it touches its workspace (and on
// thread exit), so sampling is one relaxed load.
std::atomic<std::uint64_t> g_workspace_bytes{0};

std::uint64_t workspace_bytes(const SpectrumWorkspace& ws) {
  return ws.freq.capacity() * sizeof(Complex) +
         ws.logmag.capacity() * sizeof(double);
}

struct TrackedWorkspace {
  SpectrumWorkspace ws;
  std::uint64_t accounted = 0;

  // Folds any capacity change since the last call into the global total.
  // Runs at workspace handout, so a buffer grown during the previous use is
  // visible to the next export (off by at most one image's growth).
  void reconcile() {
    const std::uint64_t now = workspace_bytes(ws);
    if (now >= accounted) {
      g_workspace_bytes.fetch_add(now - accounted, std::memory_order_relaxed);
    } else {
      g_workspace_bytes.fetch_sub(accounted - now, std::memory_order_relaxed);
    }
    accounted = now;
  }

  ~TrackedWorkspace() {
    g_workspace_bytes.fetch_sub(accounted, std::memory_order_relaxed);
  }
};

// log(u) for u >= 1, accurate to ~1e-12 absolute — a branch-free
// exponent/mantissa split plus a short atanh series, so the per-bin
// magnitude loop below auto-vectorises (glibc log1p is a scalar call with
// internal branching, ~3x slower and un-vectorisable).
//
// Subtracting the bit pattern of sqrt(1/2) before the shift lands the
// mantissa f in [sqrt(1/2), sqrt(2)), which caps |r| = |f-1|/|f+1| at
// 0.1716; the omitted series tail 2 r^15 / 15 is then < 5e-13. The
// numerical-tolerance policy in DESIGN.md §10 covers this: spectrum values
// are thresholded with k-sigma margins, so 1e-12 absolute noise is far
// below anything the detector can see.
inline double fast_log_ge1(double u) {
  constexpr std::uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDULL;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::int64_t e =
      static_cast<std::int64_t>(bits - kSqrtHalfBits) >> 52;
  const double f = std::bit_cast<double>(
      bits - (static_cast<std::uint64_t>(e) << 52));
  const double r = (f - 1.0) / (f + 1.0);
  const double r2 = r * r;
  const double poly =
      1.0 +
      r2 * (1.0 / 3.0 +
            r2 * (1.0 / 5.0 +
                  r2 * (1.0 / 7.0 +
                        r2 * (1.0 / 9.0 +
                              r2 * (1.0 / 11.0 + r2 * (1.0 / 13.0))))));
  constexpr double kLn2 = 0.6931471805599453;
  return static_cast<double>(e) * kLn2 + 2.0 * r * poly;
}

// log(1 + |v|) without the hypot overflow dance of std::abs(complex):
// magnitudes are bounded by 255 * w * h, nowhere near double overflow.
inline double log_magnitude(const Complex& v) {
  const double mag =
      std::sqrt(v.real() * v.real() + v.imag() * v.imag());
  return fast_log_ge1(1.0 + mag);
}

// Half-plane FFT + fused shift: bin (y, x) lands on row (y + h/2) mod h,
// column (x + w/2) mod w, so each output row is written as contiguous runs,
// no full-plane permutation pass. Logs are taken for columns 0..w/2 only;
// every other bin copies its Hermitian partner's value, since
// |F[y][x]| = |F[(h-y) mod h][w-x]| — bit for bit, as the two bins differ
// only in the sign of the imaginary part.
void shifted_log_magnitudes(const Image& img, SpectrumWorkspace& ws) {
  fft2d_half_plane(img, ws.freq);
  const int w = img.width();
  const int h = img.height();
  const int hx = w / 2;
  const int hy = h / 2;
  const int x_end = hx + 1;
  const int wrap = std::min(w - hx, x_end);  // first column that wraps to 0
  const auto shifted_row = [&](int y) {
    return ws.logmag.data() +
           static_cast<std::size_t>(y + hy >= h ? y + hy - h : y + hy) * w;
  };
  ws.logmag.resize(ws.freq.size());
  for (int y = 0; y < h; ++y) {
    const Complex* src = ws.freq.data() + static_cast<std::size_t>(y) * w;
    double* dst = shifted_row(y);
    for (int x = 0; x < wrap; ++x) dst[x + hx] = log_magnitude(src[x]);
    for (int x = wrap; x < x_end; ++x) dst[x + hx - w] = log_magnitude(src[x]);
  }
  // Columns x_end..w-1 shift to x + hx - w; their partners w - x stay
  // below w - hx, so they shift to w - x + hx.
  for (int y = 0; y < h; ++y) {
    const double* src = shifted_row(y == 0 ? 0 : h - y);
    double* dst = shifted_row(y);
    for (int x = x_end; x < w; ++x) dst[x + hx - w] = src[w - x + hx];
  }
}

}  // namespace

SpectrumWorkspace& thread_spectrum_workspace() {
  thread_local TrackedWorkspace tracked;
  static const bool source_registered = [] {
    obs::register_memory_source("spectrum_workspace", [] {
      return g_workspace_bytes.load(std::memory_order_relaxed);
    });
    return true;
  }();
  (void)source_registered;
  tracked.reconcile();
  return tracked.ws;
}

Image centered_log_spectrum(const Image& img, SpectrumWorkspace& workspace) {
  shifted_log_magnitudes(img, workspace);
  const std::vector<double>& logmag = workspace.logmag;
  // Branch-free min/max (minmax_element's early-exit comparisons defeat
  // vectorisation on a full double plane).
  double lo = logmag[0];
  double hi = logmag[0];
  for (const double v : logmag) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = std::max(hi - lo, 1e-12);
  Image out(img.width(), img.height(), 1);
  auto plane = out.plane(0);
  for (std::size_t i = 0; i < logmag.size(); ++i) {
    plane[i] = static_cast<float>(255.0 * (logmag[i] - lo) / span);
  }
  thread_spectrum_workspace();  // fold any scratch growth into the gauge
  return out;
}

Image centered_log_spectrum(const Image& img) {
  return centered_log_spectrum(img, thread_spectrum_workspace());
}

}  // namespace decam
