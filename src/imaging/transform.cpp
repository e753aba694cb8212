#include "imaging/transform.h"

namespace decam {

Image crop(const Image& img, int x0, int y0, int width, int height) {
  DECAM_REQUIRE(!img.empty(), "crop of empty image");
  DECAM_REQUIRE(width > 0 && height > 0, "crop size must be positive");
  DECAM_REQUIRE(x0 >= 0 && y0 >= 0 && x0 + width <= img.width() &&
                    y0 + height <= img.height(),
                "crop rectangle leaves the image");
  Image out(width, height, img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < height; ++y) {
      const auto src = img.row(y0 + y, c);
      auto dst = out.row(y, c);
      std::copy(src.begin() + x0, src.begin() + x0 + width, dst.begin());
    }
  }
  return out;
}

Image flip_horizontal(const Image& img) {
  DECAM_REQUIRE(!img.empty(), "flip of empty image");
  Image out(img.width(), img.height(), img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        out.at(x, y, c) = img.at(img.width() - 1 - x, y, c);
      }
    }
  }
  return out;
}

}  // namespace decam
