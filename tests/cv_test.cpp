// Tests for binarisation, the circular low-pass mask and 8-connected blob
// counting.
#include <gtest/gtest.h>

#include "cv/connected_components.h"
#include "cv/threshold.h"

namespace decam {
namespace {

TEST(Binarize, ThresholdsStrictlyAbove) {
  Image img(3, 1, 1);
  img.at(0, 0, 0) = 10.0f;
  img.at(1, 0, 0) = 50.0f;
  img.at(2, 0, 0) = 50.1f;
  const Image out = binarize(img, 50.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0, 0), 255.0f);
  EXPECT_THROW(binarize(Image(2, 2, 3), 1.0f), std::invalid_argument);
}

TEST(CircularLowPass, ZeroesOutsideRadius) {
  Image img(11, 11, 1, 100.0f);
  const Image out = circular_low_pass(img, 3.0);
  EXPECT_FLOAT_EQ(out.at(5, 5, 0), 100.0f);  // centre kept
  EXPECT_FLOAT_EQ(out.at(5, 2, 0), 100.0f);  // distance 3 kept
  EXPECT_FLOAT_EQ(out.at(5, 1, 0), 0.0f);    // distance 4 cut
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);    // corner cut
}

TEST(CircularLowPass, RadiusZeroKeepsOnlyCentreOfOddImage) {
  Image img(5, 5, 1, 9.0f);
  const Image out = circular_low_pass(img, 0.0);
  int kept = 0;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      if (out.at(x, y, 0) > 0.0f) ++kept;
    }
  }
  EXPECT_EQ(kept, 1);
  EXPECT_FLOAT_EQ(out.at(2, 2, 0), 9.0f);
}

TEST(ConnectedComponents, CountsIsolatedBlobs) {
  Image img(8, 8, 1, 0.0f);
  img.at(1, 1, 0) = 255.0f;  // blob 1: single pixel
  img.at(5, 5, 0) = 255.0f;  // blob 2: 2x2 square
  img.at(6, 5, 0) = 255.0f;
  img.at(5, 6, 0) = 255.0f;
  img.at(6, 6, 0) = 255.0f;
  EXPECT_EQ(count_blobs(img, 1), 2);
  EXPECT_EQ(count_blobs(img, 2), 1);  // the single pixel drops out
  EXPECT_EQ(count_blobs(img, 4), 1);  // the square has area 4 ...
  EXPECT_EQ(count_blobs(img, 5), 0);  // ... and no more
}

TEST(ConnectedComponents, DiagonalPixelsAreOneBlobWith8Connectivity) {
  Image img(4, 4, 1, 0.0f);
  img.at(0, 0, 0) = 255.0f;
  img.at(1, 1, 0) = 255.0f;
  img.at(2, 2, 0) = 255.0f;
  EXPECT_EQ(count_blobs(img, 1), 1);
  EXPECT_EQ(count_blobs(img, 3), 1);
  EXPECT_EQ(count_blobs(img, 4), 0);
}

TEST(ConnectedComponents, EmptyImageHasNoBlobs) {
  const Image img(6, 6, 1, 0.0f);
  EXPECT_EQ(count_blobs(img), 0);
}

TEST(ConnectedComponents, FullImageIsOneBlob) {
  const Image img(6, 6, 1, 255.0f);
  EXPECT_EQ(count_blobs(img, 1), 1);
  EXPECT_EQ(count_blobs(img, 36), 1);
  EXPECT_EQ(count_blobs(img, 37), 0);
}

TEST(ConnectedComponents, LabelsPartitionForeground) {
  // Opposite corners stay two components of one pixel each: the
  // background between them joins nothing.
  Image img(5, 5, 1, 0.0f);
  img.at(0, 0, 0) = 255.0f;
  img.at(4, 4, 0) = 255.0f;
  EXPECT_EQ(count_blobs(img, 1), 2);
  EXPECT_EQ(count_blobs(img, 2), 0);
}

TEST(CountBlobs, MinAreaFiltersSmallBlobs) {
  Image img(8, 8, 1, 0.0f);
  img.at(0, 0, 0) = 255.0f;  // area 1
  for (int y = 4; y < 7; ++y) {
    for (int x = 4; x < 7; ++x) img.at(x, y, 0) = 255.0f;  // area 9
  }
  EXPECT_EQ(count_blobs(img, 1), 2);
  EXPECT_EQ(count_blobs(img, 2), 1);
  EXPECT_EQ(count_blobs(img, 10), 0);
  EXPECT_THROW(count_blobs(img, 0), std::invalid_argument);
  EXPECT_THROW(count_blobs(Image(2, 2, 3)), std::invalid_argument);
}

TEST(ConnectedComponents, LargeSnakeDoesNotOverflowStack) {
  // A worst-case serpentine blob across a larger image exercises the
  // explicit-stack flood fill (a recursive version would overflow).
  const int n = 512;
  Image img(n, n, 1, 0.0f);
  for (int y = 0; y < n; ++y) {
    if (y % 2 == 0) {
      for (int x = 0; x < n; ++x) img.at(x, y, 0) = 255.0f;
    } else {
      img.at((y % 4 == 1) ? n - 1 : 0, y, 0) = 255.0f;
    }
  }
  const int area = (n / 2) * n + n / 2;
  EXPECT_EQ(count_blobs(img, 1), 1);
  EXPECT_EQ(count_blobs(img, area), 1);
  EXPECT_EQ(count_blobs(img, area + 1), 0);
}

}  // namespace
}  // namespace decam
