// Tests for crop and the left-right flip, including the group property
// (double flip = identity) and the attack-fragility property the extension
// bench builds on.
#include "imaging/transform.h"

#include <gtest/gtest.h>

#include "attack/scale_attack.h"
#include "data/rng.h"
#include "data/synth.h"
#include "metrics/mse.h"

namespace decam {
namespace {

Image numbered(int w, int h, int channels = 1) {
  Image img(w, h, channels);
  for (int c = 0; c < channels; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        img.at(x, y, c) = static_cast<float>(c * 1000 + y * w + x);
      }
    }
  }
  return img;
}

TEST(Crop, ExtractsExactRegion) {
  const Image img = numbered(6, 5, 2);
  const Image region = crop(img, 2, 1, 3, 2);
  EXPECT_EQ(region.width(), 3);
  EXPECT_EQ(region.height(), 2);
  EXPECT_EQ(region.channels(), 2);
  EXPECT_FLOAT_EQ(region.at(0, 0, 0), img.at(2, 1, 0));
  EXPECT_FLOAT_EQ(region.at(2, 1, 1), img.at(4, 2, 1));
}

TEST(Crop, FullImageCropIsIdentity) {
  const Image img = numbered(4, 3);
  const Image copy = crop(img, 0, 0, 4, 3);
  EXPECT_DOUBLE_EQ(mse(img, copy), 0.0);
}

TEST(Crop, RejectsOutOfBoundsRectangles) {
  const Image img = numbered(4, 4);
  EXPECT_THROW(crop(img, -1, 0, 2, 2), std::invalid_argument);
  EXPECT_THROW(crop(img, 3, 0, 2, 2), std::invalid_argument);
  EXPECT_THROW(crop(img, 0, 0, 0, 2), std::invalid_argument);
  EXPECT_THROW(crop(img, 0, 3, 2, 2), std::invalid_argument);
  EXPECT_THROW(crop(Image(), 0, 0, 1, 1), std::invalid_argument);
}

TEST(Flip, HorizontalSwapsColumns) {
  const Image img = numbered(3, 2);
  const Image flipped = flip_horizontal(img);
  EXPECT_FLOAT_EQ(flipped.at(0, 0, 0), img.at(2, 0, 0));
  EXPECT_FLOAT_EQ(flipped.at(2, 1, 0), img.at(0, 1, 0));
  EXPECT_FLOAT_EQ(flipped.at(1, 0, 0), img.at(1, 0, 0));  // middle fixed
}

TEST(Flip, DoubleFlipIsIdentity) {
  data::Rng rng(1);
  Image img(7, 5, 3);
  for (int c = 0; c < 3; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  EXPECT_DOUBLE_EQ(mse(flip_horizontal(flip_horizontal(img)), img), 0.0);
}

TEST(Transforms, OnePixelCropDestroysTheAttackPayload) {
  // The fragility the extension bench measures: the attack's payload lives
  // at exact grid positions; shifting the grid by one pixel leaves the
  // scaler reading mostly-original pixels.
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 97;  // 1 px to spare after the crop
  data::Rng scene_rng(2);
  data::Rng target_rng(3);
  const Image scene = generate_scene(params, scene_rng);
  const Image target = data::generate_target(24, 24, target_rng);
  attack::AttackOptions options;
  options.algo = ScaleAlgo::Nearest;
  const attack::AttackResult result =
      attack::craft_attack(scene, target, options);
  const Image uncropped_view = resize(result.image, 24, 24, options.algo);
  const Image cropped = crop(result.image, 1, 1, 96, 96);
  const Image cropped_view = resize(cropped, 24, 24, options.algo);
  EXPECT_LT(mse(uncropped_view, target), 2.0);     // attack works
  EXPECT_GT(mse(cropped_view, target), 500.0);     // ...until the 1px crop
}

}  // namespace
}  // namespace decam
