// Steganalysis detection (paper Section III-C, Algorithm 3): treat the
// attack's hidden pixels as steganographic payload and look for them in the
// frequency domain. The attack writes target pixels on a regular sampling
// grid, which shows up as Dirac-like harmonics in the DFT; after centering,
// log-scaling, low-pass masking and binarisation, benign images leave one
// bright blob (the DC peak plus its natural 1/f skirt) while attack images
// leave several — the "centered spectrum points" (CSP).
//
// The score is the CSP count itself; the paper's fixed threshold is 2
// (>= 2 blobs => attack) and needs no per-dataset calibration.
#pragma once

#include "core/detector.h"

namespace decam::core {

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

  /// The binary spectrum the blobs are counted in (for visualisation).
  Image binary_spectrum(const Image& input) const;

  const SteganalysisDetectorConfig& config() const { return config_; }

 private:
  /// Counts the blobs in the context's centered log-spectrum.
  double reduce(const AnalysisContext& context) const override;
  /// Mask + binarise a centered log-spectrum (same dimensions as the image
  /// it came from).
  Image binarize_spectrum(const Image& spectrum) const;

  SteganalysisDetectorConfig config_;
};

}  // namespace decam::core
