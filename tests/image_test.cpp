// Unit tests for decam::Image: construction, accessors, arithmetic,
// conversions and the invariants downstream modules rely on.
#include "imaging/image.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

namespace decam {
namespace {

TEST(Image, DefaultConstructedIsEmpty) {
  const Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
  EXPECT_EQ(img.height(), 0);
  EXPECT_EQ(img.channels(), 0);
  EXPECT_EQ(img.size(), 0u);
}

TEST(Image, ConstructionAllocatesAndFills) {
  const Image img(4, 3, 2, 7.5f);
  EXPECT_FALSE(img.empty());
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 2);
  EXPECT_EQ(img.plane_size(), 12u);
  EXPECT_EQ(img.size(), 24u);
  for (int c = 0; c < 2; ++c) {
    for (int y = 0; y < 3; ++y) {
      for (int x = 0; x < 4; ++x) {
        EXPECT_FLOAT_EQ(img.at(x, y, c), 7.5f);
      }
    }
  }
}

TEST(Image, InvalidConstructionThrows) {
  EXPECT_THROW(Image(0, 3, 1), std::invalid_argument);
  EXPECT_THROW(Image(3, 0, 1), std::invalid_argument);
  EXPECT_THROW(Image(3, 3, 0), std::invalid_argument);
  EXPECT_THROW(Image(-1, 3, 1), std::invalid_argument);
}

TEST(Image, PlanarLayoutIsContiguousPerChannel) {
  Image img(2, 2, 2);
  img.at(0, 0, 0) = 1.0f;
  img.at(1, 0, 0) = 2.0f;
  img.at(0, 1, 0) = 3.0f;
  img.at(1, 1, 0) = 4.0f;
  img.at(0, 0, 1) = 5.0f;
  const auto p0 = img.plane(0);
  EXPECT_FLOAT_EQ(p0[0], 1.0f);
  EXPECT_FLOAT_EQ(p0[1], 2.0f);
  EXPECT_FLOAT_EQ(p0[2], 3.0f);
  EXPECT_FLOAT_EQ(p0[3], 4.0f);
  EXPECT_FLOAT_EQ(img.plane(1)[0], 5.0f);
}

TEST(Image, RowSpanAliasesStorage) {
  Image img(3, 2, 1);
  auto row1 = img.row(1, 0);
  row1[2] = 42.0f;
  EXPECT_FLOAT_EQ(img.at(2, 1, 0), 42.0f);
  EXPECT_EQ(row1.size(), 3u);
}

TEST(Image, AtClampedReplicatesEdges) {
  Image img(2, 2, 1);
  img.at(0, 0, 0) = 1.0f;
  img.at(1, 0, 0) = 2.0f;
  img.at(0, 1, 0) = 3.0f;
  img.at(1, 1, 0) = 4.0f;
  EXPECT_FLOAT_EQ(img.at_clamped(-5, -5, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at_clamped(9, -1, 0), 2.0f);
  EXPECT_FLOAT_EQ(img.at_clamped(-1, 9, 0), 3.0f);
  EXPECT_FLOAT_EQ(img.at_clamped(9, 9, 0), 4.0f);
}

TEST(Image, ClampLimitsRange) {
  Image img(2, 1, 1);
  img.at(0, 0, 0) = -10.0f;
  img.at(1, 0, 0) = 300.0f;
  img.clamp();
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0, 0), 255.0f);
}

TEST(Image, ClampCustomBoundsAndInvalidBounds) {
  Image img(1, 1, 1, 5.0f);
  img.clamp(6.0f, 10.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 6.0f);
  EXPECT_THROW(img.clamp(10.0f, 6.0f), std::invalid_argument);
}

TEST(Image, ArithmeticOperators) {
  Image a(2, 1, 1, 10.0f);
  Image b(2, 1, 1, 4.0f);
  a += b;
  EXPECT_FLOAT_EQ(a.at(0, 0, 0), 14.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a.at(1, 0, 0), 10.0f);
}

TEST(Image, ArithmeticShapeMismatchThrows) {
  Image a(2, 1, 1);
  Image b(1, 2, 1);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(Image, ToU8InterleavesAndQuantises) {
  Image img(2, 1, 3);
  img.at(0, 0, 0) = 10.4f;   // rounds to 10
  img.at(0, 0, 1) = 10.6f;   // rounds to 11
  img.at(0, 0, 2) = -3.0f;   // clamps to 0
  img.at(1, 0, 0) = 255.9f;  // clamps to 255
  img.at(1, 0, 1) = 128.0f;
  img.at(1, 0, 2) = 1.0f;
  const auto bytes = img.to_u8();
  ASSERT_EQ(bytes.size(), 6u);
  EXPECT_EQ(bytes[0], 10);
  EXPECT_EQ(bytes[1], 11);
  EXPECT_EQ(bytes[2], 0);
  EXPECT_EQ(bytes[3], 255);
  EXPECT_EQ(bytes[4], 128);
  EXPECT_EQ(bytes[5], 1);
}

TEST(Image, FromU8RoundTrips) {
  const std::array<std::uint8_t, 6> bytes = {1, 2, 3, 4, 5, 6};
  const Image img = Image::from_u8(bytes, 2, 1, 3);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 3.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0, 1), 5.0f);
  const auto back = img.to_u8();
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), back.begin()));
}

TEST(Image, FromU8SizeMismatchThrows) {
  const std::array<std::uint8_t, 5> bytes = {};
  EXPECT_THROW(Image::from_u8(bytes, 2, 1, 3), std::invalid_argument);
}

TEST(Image, Statistics) {
  Image img(2, 2, 1);
  img.at(0, 0, 0) = 1.0f;
  img.at(1, 0, 0) = 2.0f;
  img.at(0, 1, 0) = 3.0f;
  img.at(1, 1, 0) = 6.0f;
  EXPECT_FLOAT_EQ(img.min_value(), 1.0f);
  EXPECT_FLOAT_EQ(img.max_value(), 6.0f);
}

TEST(Image, AbsdiffComputesElementwise) {
  Image a(2, 1, 1);
  Image b(2, 1, 1);
  a.at(0, 0, 0) = 5.0f;
  b.at(0, 0, 0) = 8.0f;
  a.at(1, 0, 0) = 3.0f;
  b.at(1, 0, 0) = 1.0f;
  const Image d = absdiff(a, b);
  EXPECT_FLOAT_EQ(d.at(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(d.at(1, 0, 0), 2.0f);
  EXPECT_THROW(absdiff(a, Image(1, 1, 1)), std::invalid_argument);
}

TEST(Image, SameShapeChecksAllDimensions) {
  EXPECT_TRUE(Image(2, 3, 1).same_shape(Image(2, 3, 1)));
  EXPECT_FALSE(Image(2, 3, 1).same_shape(Image(3, 2, 1)));
  EXPECT_FALSE(Image(2, 3, 1).same_shape(Image(2, 3, 2)));
}

}  // namespace
}  // namespace decam
