#include "cv/threshold.h"

namespace decam {

Image binarize(const Image& img, float level) {
  DECAM_REQUIRE(img.channels() == 1, "binarize expects 1 channel");
  Image out(img.width(), img.height(), 1);
  const auto src = img.plane(0);
  auto dst = out.plane(0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i] > level ? 255.0f : 0.0f;
  }
  return out;
}

Image circular_low_pass(const Image& img, double radius) {
  DECAM_REQUIRE(img.channels() == 1, "circular_low_pass expects 1 channel");
  DECAM_REQUIRE(radius >= 0.0, "radius must be non-negative");
  Image out = img;
  const double cx = (img.width() - 1) / 2.0;
  const double cy = (img.height() - 1) / 2.0;
  const double r2 = radius * radius;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy > r2) out.at(x, y, 0) = 0.0f;
    }
  }
  return out;
}

}  // namespace decam
