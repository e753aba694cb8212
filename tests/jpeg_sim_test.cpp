// Tests for the JPEG recompression simulator: quantisation-table scaling,
// quality monotonicity, DCT round-trip fidelity at high quality, and the
// attack-destruction property the post-processing bench measures.
#include "imaging/jpeg_sim.h"

#include <gtest/gtest.h>

#include "attack/scale_attack.h"
#include "data/rng.h"
#include "data/synth.h"
#include "metrics/mse.h"

namespace decam {
namespace {

Image noise_image(int w, int h, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, 1);
  for (float& v : img.plane(0)) {
    v = static_cast<float>(rng.next_int(0, 255));
  }
  return img;
}

TEST(JpegQuantTable, Quality50IsTheBaseTable) {
  const auto table = jpeg_quant_table(50);
  EXPECT_EQ(table[0], 16);
  EXPECT_EQ(table[63], 99);
}

TEST(JpegQuantTable, HigherQualityMeansFinerQuantisation) {
  const auto q90 = jpeg_quant_table(90);
  const auto q30 = jpeg_quant_table(30);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_LE(q90[i], q30[i]) << "coefficient " << i;
    EXPECT_GE(q90[i], 1);
    EXPECT_LE(q30[i], 255);
  }
}

TEST(JpegQuantTable, Quality100IsNearLossless) {
  const auto table = jpeg_quant_table(100);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(table[i], 1);
}

TEST(JpegQuantTable, RejectsOutOfRangeQuality) {
  EXPECT_THROW(jpeg_quant_table(0), std::invalid_argument);
  EXPECT_THROW(jpeg_quant_table(101), std::invalid_argument);
}

TEST(JpegRoundtrip, Quality100AlmostIdentity) {
  const Image img = noise_image(32, 24, 1);
  const Image out = jpeg_roundtrip(img, 100);
  ASSERT_TRUE(out.same_shape(img));
  // Unit quantisation: error bounded by DCT rounding (~0.5 per coeff).
  EXPECT_LT(mse(img, out), 1.0);
}

TEST(JpegRoundtrip, ErrorGrowsAsQualityDrops) {
  data::Rng rng(2);
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 96;
  const Image img = generate_scene(params, rng);
  const double e90 = mse(img, jpeg_roundtrip(img, 90));
  const double e50 = mse(img, jpeg_roundtrip(img, 50));
  const double e10 = mse(img, jpeg_roundtrip(img, 10));
  EXPECT_LT(e90, e50);
  EXPECT_LT(e50, e10);
  EXPECT_GT(e10, 10.0);  // visibly lossy
}

TEST(JpegRoundtrip, ConstantBlocksSurviveExactly) {
  const Image img(16, 16, 3, 128.0f);
  const Image out = jpeg_roundtrip(img, 50);
  EXPECT_LT(mse(img, out), 1e-6);
}

TEST(JpegRoundtrip, NonMultipleOf8GeometryHandled) {
  const Image img = noise_image(37, 29, 3);
  const Image out = jpeg_roundtrip(img, 75);
  ASSERT_TRUE(out.same_shape(img));
  EXPECT_GE(out.min_value(), 0.0f);
  EXPECT_LE(out.max_value(), 255.0f);
}

TEST(JpegRoundtrip, SmoothGradientBarelyChanges) {
  Image img(64, 64, 1);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      img.at(x, y, 0) = static_cast<float>(x * 2 + y);
    }
  }
  EXPECT_LT(mse(img, jpeg_roundtrip(img, 75)), 12.0);
}

TEST(JpegRoundtrip, AttackPayloadDegradesGracefullyWithQuality) {
  // The deployment finding behind `paper extension_postprocessing`: the
  // payload is NOT brittle to recompression — it degrades like ordinary
  // image content, surviving moderate quality and dissolving only under
  // aggressive compression. Recompression alone is not a defence.
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 128;
  data::Rng scene_rng(3);
  data::Rng target_rng(4);
  const Image scene = generate_scene(params, scene_rng);
  const Image target = data::generate_target(32, 32, target_rng);
  attack::AttackOptions options;
  options.algo = ScaleAlgo::Bilinear;
  const attack::AttackResult result =
      attack::craft_attack(scene, target, options);
  auto payload_error = [&](int quality) {
    const Image view =
        resize(jpeg_roundtrip(result.image, quality), 32, 32, options.algo);
    return mse(view, target);
  };
  const double e75 = payload_error(75);
  const double e20 = payload_error(20);
  const double e5 = payload_error(5);
  EXPECT_LT(e75, 20.0);   // survives typical upload recompression
  EXPECT_GT(e20, e75);    // monotone degradation...
  EXPECT_GT(e5, 200.0);   // ...until aggressive compression dissolves it
}

}  // namespace
}  // namespace decam
