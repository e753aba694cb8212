// Tests for 8-connected blob counting on byte masks, and for the CSP walk's
// low-pass circle and strict threshold on hand-built spectrum stages.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "core/steganalysis_detector.h"
#include "cv/connected_components.h"

namespace decam {
namespace {

// count_blobs clears the mask it labels, so each call gets a copy.
int blobs(std::vector<std::uint8_t> mask, int w, int h, int min_area = 1) {
  std::vector<std::size_t> stack;
  return count_blobs(mask, w, h, min_area, stack);
}

// A w x h stage whose centered value at (cx, cy) is paint(cx, cy) for every
// stored bin, normalised through lo = 0, hi = 255, so values in [0, 255]
// read back unchanged. A mirrored position reads its partner's paint.
HalfSpectrum painted(int w, int h,
                     const std::function<double(int, int)>& paint) {
  HalfSpectrum s;
  s.width = w;
  s.height = h;
  s.lo = 0.0;
  s.hi = 255.0;
  s.logmag.resize(static_cast<std::size_t>(h) * s.half_width());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < s.half_width(); ++x) {
      s.logmag[static_cast<std::size_t>(y) * s.half_width() + x] =
          paint((x + w / 2) % w, (y + h / 2) % h);
    }
  }
  return s;
}

TEST(Binarize, ThresholdsStrictlyAbove) {
  // Columns 0 and 2 of the centered 4x4 plane hold 100, the others 0, and
  // the circle holds all 16 pixels. At k = 1 the level is 50 + 50 = 100
  // exactly, and a value equal to the level is background.
  const HalfSpectrum s =
      painted(4, 4, [](int cx, int) { return cx % 2 == 0 ? 100.0 : 0.0; });
  ASSERT_EQ(s.normalized(0, 1), 100.0f);
  ASSERT_EQ(s.normalized(1, 1), 0.0f);
  const core::CspCount at_level = core::csp_walk(s, 1.5, 1.0, 1);
  EXPECT_EQ(at_level.level, 100.0);
  EXPECT_EQ(at_level.blobs, 0);
  // Just under: both columns are foreground, two blobs of four pixels.
  const core::CspCount below = core::csp_walk(s, 1.5, 0.5, 1);
  EXPECT_EQ(below.level, 75.0);
  EXPECT_EQ(below.blobs, 2);
  EXPECT_EQ(core::csp_walk(s, 1.5, 0.5, 5).blobs, 0);
}

TEST(CircularLowPass, ZeroesOutsideRadius) {
  // 5x5 at radius fraction 0.8: r = 2 exactly around (2, 2). One bright
  // pixel at a time: it is a blob only when the circle keeps it.
  const auto bright_at = [](int px, int py) {
    return painted(5, 5, [=](int cx, int cy) {
      return cx == px && cy == py ? 255.0 : 0.0;
    });
  };
  EXPECT_EQ(core::csp_walk(bright_at(2, 2), 0.8, 2.5, 1).blobs, 1);  // centre
  EXPECT_EQ(core::csp_walk(bright_at(2, 0), 0.8, 2.5, 1).blobs, 1);  // at r
  EXPECT_EQ(core::csp_walk(bright_at(3, 0), 0.8, 2.5, 1).blobs, 0);  // sqrt 5
  EXPECT_EQ(core::csp_walk(bright_at(4, 4), 0.8, 2.5, 1).blobs, 0);  // corner
}

TEST(CircularLowPass, RadiusZeroKeepsOnlyCentreOfOddImage) {
  // Only the centre enters the statistics: the level is its value alone.
  const HalfSpectrum s = painted(
      5, 5, [](int cx, int cy) { return cx == 2 && cy == 2 ? 9.0 : 200.0; });
  const core::CspCount walk = core::csp_walk(s, 0.0, 2.5, 1);
  EXPECT_EQ(walk.level, 9.0);
  EXPECT_EQ(walk.blobs, 0);
}

TEST(CircularLowPass, EmptyCircleThrows) {
  // 1x2: r = 0.475 around (0, 0.5) keeps neither pixel.
  const HalfSpectrum s = painted(1, 2, [](int, int) { return 1.0; });
  EXPECT_THROW(core::csp_walk(s, 0.95, 2.5, 1), std::invalid_argument);
}

TEST(ConnectedComponents, CountsIsolatedBlobs) {
  std::vector<std::uint8_t> mask(8 * 8, 0);
  mask[1 * 8 + 1] = 1;  // blob 1: single pixel
  mask[5 * 8 + 5] = 1;  // blob 2: 2x2 square
  mask[5 * 8 + 6] = 1;
  mask[6 * 8 + 5] = 1;
  mask[6 * 8 + 6] = 1;
  EXPECT_EQ(blobs(mask, 8, 8, 1), 2);
  EXPECT_EQ(blobs(mask, 8, 8, 2), 1);  // the single pixel drops out
  EXPECT_EQ(blobs(mask, 8, 8, 4), 1);  // the square has area 4 ...
  EXPECT_EQ(blobs(mask, 8, 8, 5), 0);  // ... and no more
}

TEST(ConnectedComponents, DiagonalPixelsAreOneBlobWith8Connectivity) {
  std::vector<std::uint8_t> mask(4 * 4, 0);
  mask[0] = 1;
  mask[1 * 4 + 1] = 1;
  mask[2 * 4 + 2] = 1;
  EXPECT_EQ(blobs(mask, 4, 4, 1), 1);
  EXPECT_EQ(blobs(mask, 4, 4, 3), 1);
  EXPECT_EQ(blobs(mask, 4, 4, 4), 0);
}

TEST(ConnectedComponents, EmptyImageHasNoBlobs) {
  EXPECT_EQ(blobs(std::vector<std::uint8_t>(6 * 6, 0), 6, 6), 0);
}

TEST(ConnectedComponents, FullImageIsOneBlob) {
  const std::vector<std::uint8_t> mask(6 * 6, 1);
  EXPECT_EQ(blobs(mask, 6, 6, 1), 1);
  EXPECT_EQ(blobs(mask, 6, 6, 36), 1);
  EXPECT_EQ(blobs(mask, 6, 6, 37), 0);
}

TEST(ConnectedComponents, LabelsPartitionForeground) {
  // Opposite corners stay two components of one pixel each: the
  // background between them joins nothing.
  std::vector<std::uint8_t> mask(5 * 5, 0);
  mask[0] = 1;
  mask[4 * 5 + 4] = 1;
  EXPECT_EQ(blobs(mask, 5, 5, 1), 2);
  EXPECT_EQ(blobs(mask, 5, 5, 2), 0);
}

TEST(CountBlobs, MinAreaFiltersSmallBlobs) {
  std::vector<std::uint8_t> mask(8 * 8, 0);
  mask[0] = 1;  // area 1
  for (int y = 4; y < 7; ++y) {
    for (int x = 4; x < 7; ++x) mask[y * 8 + x] = 1;  // area 9
  }
  EXPECT_EQ(blobs(mask, 8, 8, 1), 2);
  EXPECT_EQ(blobs(mask, 8, 8, 2), 1);
  EXPECT_EQ(blobs(mask, 8, 8, 10), 0);
  EXPECT_THROW(blobs(mask, 8, 8, 0), std::invalid_argument);
  EXPECT_THROW(blobs(mask, 8, 7), std::invalid_argument);  // size mismatch
}

TEST(ConnectedComponents, LargeSnakeDoesNotOverflowStack) {
  // A worst-case serpentine blob across a larger image exercises the
  // explicit-stack flood fill (a recursive version would overflow).
  const int n = 512;
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n) * n, 0);
  for (int y = 0; y < n; ++y) {
    std::uint8_t* row = mask.data() + static_cast<std::size_t>(y) * n;
    if (y % 2 == 0) {
      std::fill(row, row + n, std::uint8_t{1});
    } else {
      row[(y % 4 == 1) ? n - 1 : 0] = 1;
    }
  }
  const int area = (n / 2) * n + n / 2;
  EXPECT_EQ(blobs(mask, n, n, 1), 1);
  EXPECT_EQ(blobs(mask, n, n, area), 1);
  EXPECT_EQ(blobs(mask, n, n, area + 1), 0);
}

}  // namespace
}  // namespace decam
