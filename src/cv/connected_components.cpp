#include "cv/connected_components.h"

#include <cstdint>
#include <vector>

namespace decam {

int count_blobs(const Image& binary, int min_area) {
  DECAM_REQUIRE(binary.channels() == 1, "count_blobs expects 1 channel");
  DECAM_REQUIRE(min_area >= 1, "min_area must be >= 1");
  const int w = binary.width();
  const int h = binary.height();
  const auto src = binary.plane(0);
  std::vector<std::uint8_t> visited(src.size(), 0);
  // Explicit-stack flood fill: a recursive one would overflow on a large
  // serpentine blob.
  std::vector<std::size_t> stack;
  int count = 0;
  for (std::size_t seed = 0; seed < src.size(); ++seed) {
    if (src[seed] <= 0.0f || visited[seed] != 0) continue;
    int area = 0;
    stack.push_back(seed);
    visited[seed] = 1;
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
          if (src[nidx] > 0.0f && visited[nidx] == 0) {
            visited[nidx] = 1;
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
