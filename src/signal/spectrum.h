// Centered log-magnitude spectrum — Eq. (4) of the paper: the DFT is
// shifted so the DC bin sits at the image centre, and log(1 + |F|) maps the
// enormous dynamic range into something thresholdable. The steganalysis
// detector then masks, binarises and counts the bright blobs of this
// spectrum ("centered spectrum points", CSP).
//
// The transform is the stage's own: row pairs packed four lines per vector,
// then the columns 0..w/2 four per vector in place (DESIGN.md §10).
// The stage the detector reads (HalfSpectrum) keeps only what a real input
// needs: the log magnitudes of DFT columns 0..w/2, unshifted, and their
// range. Every other bin's magnitude is its Hermitian partner's, bit for
// bit (the two differ only in the sign of the imaginary part), and the
// shift is index arithmetic, so neither a shifted nor a mirrored plane is
// ever stored. HalfSpectrum::normalized() reads any centered position
// through that arithmetic; the rendered spectrum (centered_log_spectrum)
// and the detector's walk both go through it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "imaging/image.h"
#include "signal/fft_plan.h"

namespace decam {

/// The spectrum stage: log(1 + |F[y][x]|) for x in 0..width/2, row-major
/// (height rows of half_width() values, DC at [0]), and the min and max
/// of those values, which are the min and max of the full plane.
struct HalfSpectrum {
  int width = 0;  // geometry of the image the spectrum came from
  int height = 0;
  std::vector<double> logmag;
  double lo = 0.0;
  double hi = 0.0;

  int half_width() const { return width / 2 + 1; }

  /// The log magnitude at (cx, cy) of the centered (fftshift-ed) plane,
  /// whose DC bin sits at (width/2, height/2). Unshifted, that is bin
  /// y = (cy + h - h/2) mod h, x = (cx + w - w/2) mod w: stored when
  /// x <= w/2, else its Hermitian partner ((h - y) mod h, w - x) is.
  double centered(int cx, int cy) const {
    int y = cy + height - height / 2;
    if (y >= height) y -= height;
    int x = cx + width - width / 2;
    if (x >= width) x -= width;
    if (x > width / 2) {
      y = y == 0 ? 0 : height - y;
      x = width - x;
    }
    return logmag[static_cast<std::size_t>(y) * half_width() + x];
  }

  /// The centered value mapped linearly onto [0, 255] by the plane's
  /// range: the one normalisation formula every reader uses.
  float normalized(int cx, int cy) const {
    const double span = std::max(hi - lo, 1e-12);
    return static_cast<float>(255.0 * (centered(cx, cy) - lo) / span);
  }
};

/// Reusable per-thread scratch of the CSP member: the transform's lane
/// buffers, and the detector walk's normalised values, byte mask and fill
/// stack. Its bytes are the `mem/spectrum_workspace_bytes` gauge; none of it
/// survives warm-up as a per-image allocation.
///
/// The lane buffers hold split complexes, four lines per element
/// (simd::kFftLanes, SimdOps::fft_lanes): `lines` the row pass's four
/// packed row pairs (8 * w doubles), `groups` the columns 0..w/2 four at a
/// time, each group h elements of re then h of im (about 8 * w * h bytes
/// in all), and `work` the lane transform's scratch. Each call sizes them
/// exactly and leaves them unset (NaN under AddressSanitizer,
/// DefaultInitAllocator), so a read of a lane nobody wrote shows.
struct SpectrumWorkspace {
  using LaneBuffer = std::vector<double, DefaultInitAllocator<double>>;
  LaneBuffer lines;
  LaneBuffer groups;
  LaneBuffer work;
  std::vector<float> values;
  std::vector<std::uint8_t> mask;
  std::vector<std::size_t> stack;
};

/// The calling thread's workspace. Each call folds any growth since the
/// previous one into the gauge.
SpectrumWorkspace& thread_spectrum_workspace();

/// The spectrum stage of `img` (luma is taken for color inputs).
HalfSpectrum half_log_spectrum(const Image& img);

/// The centered spectrum rendered as an image: normalized() at every
/// pixel, same geometry as the input, 1 channel.
Image centered_log_spectrum(const Image& img);

}  // namespace decam
