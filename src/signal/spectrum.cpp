#include "signal/spectrum.h"

#include <atomic>
#include <limits>

#include "common/simd.h"
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
         ws.values.capacity() * sizeof(float) + ws.mask.capacity() +
         ws.stack.capacity() * sizeof(std::size_t);
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

// The half-plane transform, then one dispatched pass per row that takes
// the logs of columns 0..w/2 and folds their min and max
// (simd::SimdOps::log_magnitudes). The mirrored columns are never logged:
// their values are their partners', so the half plane's range is the full
// plane's.
HalfSpectrum half_log_spectrum(const Image& img) {
  SpectrumWorkspace& ws = thread_spectrum_workspace();
  fft2d_half_plane(img, ws.freq);
  HalfSpectrum out;
  out.width = img.width();
  out.height = img.height();
  const int hw = out.half_width();
  out.logmag.resize(static_cast<std::size_t>(out.height) * hw);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  const simd::SimdOps& ops = simd::ops();
  for (int y = 0; y < out.height; ++y) {
    // std::complex<double> is layout-compatible with double[2].
    const double* row = reinterpret_cast<const double*>(
        ws.freq.data() + static_cast<std::size_t>(y) * out.width);
    ops.log_magnitudes(out.logmag.data() + static_cast<std::size_t>(y) * hw,
                       row, hw, &lo, &hi);
  }
  out.lo = lo;
  out.hi = hi;
  thread_spectrum_workspace();  // fold any scratch growth into the gauge
  return out;
}

Image centered_log_spectrum(const Image& img) {
  const HalfSpectrum spectrum = half_log_spectrum(img);
  Image out = Image::uninitialized(img.width(), img.height(), 1);
  for (int y = 0; y < out.height(); ++y) {
    float* row = out.row(y).data();
    for (int x = 0; x < out.width(); ++x) row[x] = spectrum.normalized(x, y);
  }
  return out;
}

}  // namespace decam
