#include "core/steganalysis_detector.h"

#include <algorithm>
#include <cmath>

#include "cv/connected_components.h"
#include "obs/span.h"

namespace decam::core {

CspCount csp_walk(const HalfSpectrum& spectrum, double radius_fraction,
                  double binarize_k, int min_area) {
  const int w = spectrum.width;
  const int h = spectrum.height;
  const double radius = radius_fraction * std::min(w, h) / 2.0;
  const double cx = (w - 1) / 2.0;
  const double cy = (h - 1) / 2.0;
  const double r2 = radius * radius;
  SpectrumWorkspace& ws = thread_spectrum_workspace();

  // Row y's pixels inside the circle, [x0, x1); empty when x0 == x1.
  // Coordinates are integers or half-integers below 2^24, so
  // dx^2 + dy^2 is exact and the inside pixels of a row are one run
  // around the centre column xm = floor(cx). A square-root estimate of
  // its ends is corrected with the exact test, pixel by pixel.
  const int xm = (w - 1) / 2;
  const auto run = [&](int y, int& x0, int& x1) {
    const double dy = y - cy;
    const double dy2 = dy * dy;
    const auto inside = [&](int x) {
      const double dx = x - cx;
      return !(dx * dx + dy2 > r2);
    };
    if (!inside(xm)) {
      x0 = x1 = 0;
      return;
    }
    const double half = std::sqrt(std::max(r2 - dy2, 0.0));
    x0 = static_cast<int>(std::clamp(std::ceil(cx - half), 0.0,
                                     static_cast<double>(xm)));
    int last = static_cast<int>(std::clamp(
        std::floor(cx + half), static_cast<double>(xm),
        static_cast<double>(w - 1)));
    while (!inside(x0)) ++x0;
    while (x0 > 0 && inside(x0 - 1)) --x0;
    while (!inside(last)) --last;
    while (last + 1 < w && inside(last + 1)) ++last;
    x1 = last + 1;
  };

  // Scratch only grows, so a warm thread neither allocates nor fills.
  const std::size_t plane = static_cast<std::size_t>(w) * h;
  if (ws.values.size() < plane) ws.values.resize(plane);
  if (ws.mask.size() < plane) ws.mask.resize(plane);

  // Pass 1: the normalised values inside the circle, in row-major order,
  // and their sums in that order (the level's bits depend on it).
  float* values = ws.values.data();
  std::size_t count = 0;
  double sum = 0.0, sum_sq = 0.0;
  for (int y = 0; y < h; ++y) {
    int x0 = 0, x1 = 0;
    run(y, x0, x1);
    for (int x = x0; x < x1; ++x) {
      const float f = spectrum.normalized(x, y);
      values[count++] = f;
      const double v = f;
      sum += v;
      sum_sq += v * v;
    }
  }
  DECAM_REQUIRE(count > 0, "low-pass mask left no pixels");
  // Adaptive level from the statistics INSIDE the mask: mean + k*std. The
  // DC peak and attack harmonics sit many sigma above the natural 1/f
  // falloff, so this level isolates them regardless of image content.
  const double mean = sum / static_cast<double>(count);
  const double variance =
      std::max(sum_sq / static_cast<double>(count) - mean * mean, 0.0);
  const double level = mean + binarize_k * std::sqrt(variance);
  const float threshold = static_cast<float>(std::min(level, 254.0));

  // Pass 2: the byte mask, 1 above the threshold inside the runs and 0
  // everywhere else. Values are >= 0 and so is the threshold, so no pixel
  // outside the circle could have been foreground.
  const float* v = values;
  for (int y = 0; y < h; ++y) {
    int x0 = 0, x1 = 0;
    run(y, x0, x1);
    std::uint8_t* row = ws.mask.data() + static_cast<std::size_t>(y) * w;
    std::fill(row, row + x0, std::uint8_t{0});
    for (int x = x0; x < x1; ++x) row[x] = *v++ > threshold ? 1 : 0;
    std::fill(row + x1, row + w, std::uint8_t{0});
  }
  const int blobs = count_blobs({ws.mask.data(), plane}, w, h, min_area,
                                ws.stack);
  thread_spectrum_workspace();  // fold any scratch growth into the gauge
  return {blobs, level};
}

SteganalysisDetector::SteganalysisDetector(SteganalysisDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.radius_fraction > 0.0 && config.radius_fraction <= 1.5,
                "radius fraction out of range");
  DECAM_REQUIRE(config.binarize_k > 0.0, "binarize_k must be positive");
  DECAM_REQUIRE(config.min_blob_area >= 0,
                "min_blob_area must be >= 0 (0 selects the automatic floor)");
}

int SteganalysisDetector::count_csp(const Image& input) const {
  return static_cast<int>(score(input));
}

double SteganalysisDetector::reduce(const AnalysisContext& context) const {
  DECAM_SPAN("detector/steganalysis/csp");
  const HalfSpectrum& spectrum = context.spectrum();
  int min_area = config_.min_blob_area;
  if (min_area == 0) {
    // Benign spectral speckles scale with image area (~plane/8000 at the
    // sizes we evaluate) while the harmonic copies of even small embedded
    // targets stay above ~plane/3400; the floor sits between the two. The
    // spectrum and the input share dimensions, so the floor is identical.
    min_area = std::max<int>(
        6, static_cast<int>(static_cast<long long>(spectrum.width) *
                            spectrum.height / 4500));
  }
  return csp_walk(spectrum, config_.radius_fraction, config_.binarize_k,
                  min_area)
      .blobs;
}

void SteganalysisDetector::prime(AnalysisContextSpec& spec) const {
  spec.spectrum = true;
}

std::string SteganalysisDetector::name() const { return "steganalysis/csp"; }

}  // namespace decam::core
