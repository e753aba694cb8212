#include "metrics/histogram.h"

#include <algorithm>

namespace decam {

std::vector<double> color_histogram(const Image& img, int bins) {
  DECAM_REQUIRE(!img.empty(), "histogram of empty image");
  DECAM_REQUIRE(bins > 0 && bins <= 256, "bins must be in [1, 256]");
  std::vector<double> hist(
      static_cast<std::size_t>(img.channels()) * bins, 0.0);
  const double scale = bins / 256.0;
  for (int c = 0; c < img.channels(); ++c) {
    const auto plane = img.plane(c);
    for (float v : plane) {
      const int bin = std::clamp(
          static_cast<int>(std::clamp(v, 0.0f, 255.0f) * scale), 0, bins - 1);
      hist[static_cast<std::size_t>(c) * bins + bin] += 1.0;
    }
    const double inv = 1.0 / static_cast<double>(plane.size());
    for (int b = 0; b < bins; ++b) {
      hist[static_cast<std::size_t>(c) * bins + b] *= inv;
    }
  }
  return hist;
}

double histogram_intersection(const std::vector<double>& h1,
                              const std::vector<double>& h2) {
  DECAM_REQUIRE(h1.size() == h2.size(), "histogram size mismatch");
  DECAM_REQUIRE(!h1.empty(), "empty histograms");
  double inter = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < h1.size(); ++i) {
    inter += std::min(h1[i], h2[i]);
    norm += h1[i];
  }
  return norm > 0.0 ? inter / norm : 0.0;
}

}  // namespace decam
