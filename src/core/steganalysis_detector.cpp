#include "core/steganalysis_detector.h"

#include <algorithm>
#include <cmath>

#include "cv/connected_components.h"
#include "cv/threshold.h"
#include "obs/span.h"
#include "signal/spectrum.h"

namespace decam::core {

SteganalysisDetector::SteganalysisDetector(SteganalysisDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.radius_fraction > 0.0 && config.radius_fraction <= 1.5,
                "radius fraction out of range");
  DECAM_REQUIRE(config.binarize_k > 0.0, "binarize_k must be positive");
  DECAM_REQUIRE(config.min_blob_area >= 0,
                "min_blob_area must be >= 0 (0 selects the automatic floor)");
}

Image SteganalysisDetector::binary_spectrum(const Image& input) const {
  return binarize_spectrum(centered_log_spectrum(input));
}

Image SteganalysisDetector::binarize_spectrum(const Image& spectrum) const {
  // The spectrum has the same dimensions as the image it came from, so the
  // low-pass radius can be derived from it directly.
  const double radius = config_.radius_fraction *
                        std::min(spectrum.width(), spectrum.height()) / 2.0;
  const Image masked = circular_low_pass(spectrum, radius);

  // Adaptive level from the statistics INSIDE the mask: mean + k*std. The
  // DC peak and attack harmonics sit many sigma above the natural 1/f
  // falloff, so this level isolates them regardless of image content.
  const double cx = (masked.width() - 1) / 2.0;
  const double cy = (masked.height() - 1) / 2.0;
  const double r2 = radius * radius;
  double sum = 0.0, sum_sq = 0.0;
  std::size_t count = 0;
  for (int y = 0; y < masked.height(); ++y) {
    for (int x = 0; x < masked.width(); ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy > r2) continue;
      const double v = masked.at(x, y, 0);
      sum += v;
      sum_sq += v * v;
      ++count;
    }
  }
  DECAM_REQUIRE(count > 0, "low-pass mask left no pixels");
  const double mean = sum / static_cast<double>(count);
  const double variance =
      std::max(sum_sq / static_cast<double>(count) - mean * mean, 0.0);
  const double level = mean + config_.binarize_k * std::sqrt(variance);
  return binarize(masked, static_cast<float>(std::min(level, 254.0)));
}

int SteganalysisDetector::count_csp(const Image& input) const {
  return static_cast<int>(score(input));
}

double SteganalysisDetector::reduce(const AnalysisContext& context) const {
  DECAM_SPAN("detector/steganalysis/csp");
  const Image& spectrum = context.spectrum();
  int min_area = config_.min_blob_area;
  if (min_area == 0) {
    // Benign spectral speckles scale with image area (~plane/8000 at the
    // sizes we evaluate) while the harmonic copies of even small embedded
    // targets stay above ~plane/3400; the floor sits between the two. The
    // spectrum and the input share dimensions, so the floor is identical.
    min_area = std::max<int>(
        6, static_cast<int>(static_cast<long long>(spectrum.width()) *
                            spectrum.height() / 4500));
  }
  return count_blobs(binarize_spectrum(spectrum), min_area);
}

void SteganalysisDetector::prime(AnalysisContextSpec& spec) const {
  spec.spectrum = true;
}

std::string SteganalysisDetector::name() const { return "steganalysis/csp"; }

}  // namespace decam::core
