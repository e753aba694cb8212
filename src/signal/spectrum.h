// Centered log-magnitude spectrum — Eq. (4) of the paper: the DFT is
// shifted so the DC bin sits at the image centre, and log(1 + |F|) maps the
// enormous dynamic range into something thresholdable. The steganalysis
// detector then binarises this spectrum and counts bright blobs ("centered
// spectrum points", CSP).
//
// The shift is fused into the magnitude pass: log1p(|F|) is written
// directly at its fftshift-ed position, so neither the shifted complex
// plane nor an intermediate complex copy ever exists. Only columns 0..w/2
// are transformed and logged; every other bin copies its Hermitian
// partner's value, which is bit-identical.
#pragma once

#include "imaging/image.h"
#include "signal/fft.h"

namespace decam {

/// Reusable scratch for the spectrum pipeline: the complex frequency plane
/// and the shifted log-magnitude buffer. Callers scoring many images (the
/// AnalysisContext's spectrum stage) keep one per thread so no per-image
/// allocation survives warm-up.
struct SpectrumWorkspace {
  std::vector<Complex> freq;
  std::vector<double> logmag;
};

/// The calling thread's default workspace — what the convenience overloads
/// below use.
SpectrumWorkspace& thread_spectrum_workspace();

/// Computes the centered log-magnitude spectrum of `img` (luma is taken for
/// color inputs) and linearly normalises it to [0, 255]. The output has the
/// same geometry as the input, 1 channel.
Image centered_log_spectrum(const Image& img);

/// Scratch-reusing overload of the above. On return `workspace.logmag`
/// holds the raw (unnormalised) shifted log magnitudes, row-major.
Image centered_log_spectrum(const Image& img, SpectrumWorkspace& workspace);

}  // namespace decam
