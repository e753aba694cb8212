// Steganalysis detection (paper Section III-C, Algorithm 3): treat the
// attack's hidden pixels as steganographic payload and look for them in the
// frequency domain. The attack writes target pixels on a regular sampling
// grid, which shows up as Dirac-like harmonics in the DFT; after centering,
// log-scaling, low-pass masking and binarisation, benign images leave one
// bright blob (the DC peak plus its natural 1/f skirt) while attack images
// leave several — the "centered spectrum points" (CSP).
//
// The chain after the transform is one walk over the spectrum stage
// (csp_walk): the circle of Eq. (7) is one run of pixels per row, whose
// normalised values give the level mean + k*sigma; the same runs then
// write a byte mask of the values above that level, and count_blobs
// (cv/connected_components.h) labels it. No normalised, masked or binary
// float plane is made.
//
// The score is the CSP count itself; the paper's fixed threshold is 2
// (>= 2 blobs => attack) and needs no per-dataset calibration.
#pragma once

#include "core/detector.h"
#include "signal/spectrum.h"

namespace decam::core {

/// What one CSP walk found.
struct CspCount {
  int blobs = 0;       // 8-connected foreground blobs of >= min_area pixels
  double level = 0.0;  // mean + k * sigma of the values inside the circle
};

/// The CSP reduction of one spectrum stage, with the calling thread's
/// SpectrumWorkspace as scratch. The low-pass circle keeps the pixels
/// with dx^2 + dy^2 <= r^2 around ((w-1)/2, (h-1)/2), r = radius_fraction
/// * min(w, h) / 2. Their normalised values (HalfSpectrum::normalized),
/// added row by row, left to right, give the level mean + binarize_k *
/// sigma; the foreground is the pixels inside whose value exceeds
/// float(min(level, 254)). Throws when the circle holds no pixel.
CspCount csp_walk(const HalfSpectrum& spectrum, double radius_fraction,
                  double binarize_k, int min_area);

struct SteganalysisDetectorConfig {
  // Low-pass radius as a fraction of min(width, height)/2 — D_T of Eq. (7).
  double radius_fraction = 0.95;
  // Binarisation level: mean + k*std of the masked spectrum magnitudes.
  // 2.5 keeps the harmonic copies of the target's spectral lobe while the
  // benign 1/f skirt stays below (validated in tests/detectors_test.cpp).
  double binarize_k = 2.5;
  // Ignore blobs smaller than this many pixels. 0 = automatic: the
  // harmonic copies grow with image area, and so do benign speckles, so
  // the floor scales as max(6, width*height/4500).
  int min_blob_area = 0;
};

class SteganalysisDetector final : public Detector {
 public:
  explicit SteganalysisDetector(SteganalysisDetectorConfig config = {});

  void prime(AnalysisContextSpec& spec) const override;
  std::string name() const override;

  /// Integer CSP count (score() is the same count as a double).
  int count_csp(const Image& input) const;

  const SteganalysisDetectorConfig& config() const { return config_; }

 private:
  /// The CSP walk over the context's spectrum stage.
  double reduce(const AnalysisContext& context) const override;

  SteganalysisDetectorConfig config_;
};

}  // namespace decam::core
