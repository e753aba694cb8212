// Tests for the drawing primitives used by the synthetic dataset generator.
#include <gtest/gtest.h>

#include <array>

#include "imaging/draw.h"

namespace decam {
namespace {

TEST(Draw, FillRectClipsToImage) {
  Image img(4, 4, 1, 0.0f);
  const std::array<float, 1> white = {255.0f};
  fill_rect(img, -2, -2, 2, 2, white);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 255.0f);
  EXPECT_FLOAT_EQ(img.at(1, 1, 0), 255.0f);
  EXPECT_FLOAT_EQ(img.at(2, 2, 0), 0.0f);
}

TEST(Draw, FillRectBroadcastsSingleColorToAllChannels) {
  Image img(2, 2, 3, 0.0f);
  const std::array<float, 1> gray = {70.0f};
  fill_rect(img, 0, 0, 2, 2, gray);
  for (int c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(img.at(1, 1, c), 70.0f);
}

TEST(Draw, FillRectRejectsWrongColorArity) {
  Image img(2, 2, 3);
  const std::array<float, 2> bad = {1.0f, 2.0f};
  EXPECT_THROW(fill_rect(img, 0, 0, 1, 1, bad), std::invalid_argument);
}

TEST(Draw, FillCircleCoversDisc) {
  Image img(9, 9, 1, 0.0f);
  const std::array<float, 1> white = {255.0f};
  fill_circle(img, 4, 4, 2, white);
  EXPECT_FLOAT_EQ(img.at(4, 4, 0), 255.0f);
  EXPECT_FLOAT_EQ(img.at(6, 4, 0), 255.0f);   // on the radius
  EXPECT_FLOAT_EQ(img.at(7, 4, 0), 0.0f);     // outside
  EXPECT_FLOAT_EQ(img.at(6, 6, 0), 0.0f);     // corner at distance 2*sqrt2
  EXPECT_THROW(fill_circle(img, 0, 0, -1, white), std::invalid_argument);
}

TEST(Draw, DrawLineConnectsEndpoints) {
  Image img(5, 5, 1, 0.0f);
  const std::array<float, 1> white = {255.0f};
  draw_line(img, 0, 0, 4, 4, white);
  for (int i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(img.at(i, i, 0), 255.0f);
}

TEST(Draw, DrawLineClipsOutOfRangePoints) {
  Image img(3, 3, 1, 0.0f);
  const std::array<float, 1> white = {255.0f};
  draw_line(img, -2, 1, 5, 1, white);  // horizontal, partially outside
  for (int x = 0; x < 3; ++x) EXPECT_FLOAT_EQ(img.at(x, 1, 0), 255.0f);
}

TEST(Draw, GradientInterpolatesHorizontally) {
  Image img(11, 3, 1);
  const std::array<float, 1> from = {0.0f};
  const std::array<float, 1> to = {100.0f};
  fill_gradient(img, from, to, 0.0);
  EXPECT_NEAR(img.at(0, 1, 0), 0.0f, 1e-3f);
  EXPECT_NEAR(img.at(5, 1, 0), 50.0f, 1e-3f);
  EXPECT_NEAR(img.at(10, 1, 0), 100.0f, 1e-3f);
  // Vertical invariance for angle 0.
  EXPECT_NEAR(img.at(5, 0, 0), img.at(5, 2, 0), 1e-4f);
}

TEST(Draw, BlendSpriteRespectsAlphaAndClipping) {
  Image img(4, 4, 1, 100.0f);
  Image sprite(2, 2, 1, 200.0f);
  blend_sprite(img, sprite, 3, 3, 0.5f);  // only (3,3) overlaps
  EXPECT_FLOAT_EQ(img.at(3, 3, 0), 150.0f);
  EXPECT_FLOAT_EQ(img.at(2, 2, 0), 100.0f);
  EXPECT_THROW(blend_sprite(img, Image(2, 2, 3), 0, 0, 0.5f),
               std::invalid_argument);
  EXPECT_THROW(blend_sprite(img, sprite, 0, 0, 1.5f), std::invalid_argument);
}

}  // namespace
}  // namespace decam
