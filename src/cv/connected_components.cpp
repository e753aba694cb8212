#include "cv/connected_components.h"

#include "common/error.h"

namespace decam {

int count_blobs(std::span<std::uint8_t> mask, int width, int height,
                int min_area, std::vector<std::size_t>& stack) {
  DECAM_REQUIRE(width > 0 && height > 0 &&
                    mask.size() == static_cast<std::size_t>(width) * height,
                "count_blobs mask size mismatch");
  DECAM_REQUIRE(min_area >= 1, "min_area must be >= 1");
  const int w = width;
  const int h = height;
  // Explicit-stack flood fill: a recursive one would overflow on a large
  // serpentine blob. A pixel is cleared when pushed, so each is filled once.
  stack.clear();
  int count = 0;
  for (std::size_t seed = 0; seed < mask.size(); ++seed) {
    if (mask[seed] == 0) continue;
    int area = 0;
    stack.push_back(seed);
    mask[seed] = 0;
    while (!stack.empty()) {
      const std::size_t idx = stack.back();
      stack.pop_back();
      ++area;
      const int x = static_cast<int>(idx % static_cast<std::size_t>(w));
      const int y = static_cast<int>(idx / static_cast<std::size_t>(w));
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = x + dx;
          const int ny = y + dy;
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::size_t nidx = static_cast<std::size_t>(ny) * w + nx;
          if (mask[nidx] != 0) {
            mask[nidx] = 0;
            stack.push_back(nidx);
          }
        }
      }
    }
    if (area >= min_area) ++count;
  }
  return count;
}

}  // namespace decam
