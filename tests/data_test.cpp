// Tests for the deterministic RNG, value noise and scene/target/portrait
// generators (determinism, statistics, regime separation).
#include <gtest/gtest.h>

#include <cmath>

#include "data/noise.h"
#include "data/rng.h"
#include "data/synth.h"
#include "data/trigger.h"
#include "metrics/mse.h"

namespace decam::data {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, IntRespectsBoundsAndCoversRange) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.next_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.next_int(5, 5), 5);
  EXPECT_THROW(rng.next_int(2, 1), std::invalid_argument);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(10);
  int hits = 0;
  constexpr int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(11);
  Rng parent2(11);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(ValueNoise, DeterministicAndInRange) {
  NoiseParams params;
  Rng rng1(20);
  Rng rng2(20);
  const Image a = value_noise(48, 32, params, rng1);
  const Image b = value_noise(48, 32, params, rng2);
  EXPECT_DOUBLE_EQ(mse(a, b), 0.0);
  EXPECT_GE(a.min_value(), 0.0f);
  EXPECT_LE(a.max_value(), 255.0f);
}

TEST(ValueNoise, HasSpatialCorrelation) {
  // Neighbouring pixels must be far more similar than distant ones —
  // the defining property separating value noise from white noise.
  NoiseParams params;
  Rng rng(21);
  const Image img = value_noise(128, 128, params, rng);
  double neighbour_diff = 0.0, distant_diff = 0.0;
  int count = 0;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      neighbour_diff += std::abs(img.at(x, y, 0) - img.at(x + 1, y, 0));
      distant_diff += std::abs(img.at(x, y, 0) - img.at(x + 64, y + 64, 0));
      ++count;
    }
  }
  EXPECT_LT(neighbour_diff / count, 0.3 * distant_diff / count);
}

TEST(ValueNoise, RgbChannelsCorrelateWithLuma) {
  NoiseParams params;
  Rng rng(22);
  const Image img = value_noise_rgb(64, 64, params, rng);
  ASSERT_EQ(img.channels(), 3);
  // Channels should be correlated (shared luma field): compute Pearson r
  // between channel 0 and channel 1.
  double mean0 = 0.0, mean1 = 0.0;
  const auto p0 = img.plane(0);
  const auto p1 = img.plane(1);
  for (std::size_t i = 0; i < p0.size(); ++i) {
    mean0 += p0[i];
    mean1 += p1[i];
  }
  mean0 /= static_cast<double>(p0.size());
  mean1 /= static_cast<double>(p1.size());
  double cov = 0.0, var0 = 0.0, var1 = 0.0;
  for (std::size_t i = 0; i < p0.size(); ++i) {
    cov += (p0[i] - mean0) * (p1[i] - mean1);
    var0 += (p0[i] - mean0) * (p0[i] - mean0);
    var1 += (p1[i] - mean1) * (p1[i] - mean1);
  }
  const double r = cov / std::sqrt(var0 * var1);
  EXPECT_GT(r, 0.5);
}

TEST(ValueNoise, RejectsBadParams) {
  NoiseParams params;
  params.octaves = 0;
  Rng rng(23);
  EXPECT_THROW(value_noise(8, 8, params, rng), std::invalid_argument);
  params.octaves = 3;
  params.base_period = 0.5;
  EXPECT_THROW(value_noise(8, 8, params, rng), std::invalid_argument);
}

TEST(Scenes, GeneratorIsDeterministicPerSeed) {
  const SceneParams params = scene_params(Regime::A);
  Rng rng1(99);
  Rng rng2(99);
  for (int i = 0; i < 3; ++i) {
    const Image scene1 = generate_scene(params, rng1);
    const Image scene2 = generate_scene(params, rng2);
    ASSERT_TRUE(scene1.same_shape(scene2));
    EXPECT_DOUBLE_EQ(mse(scene1, scene2), 0.0);
  }
}

TEST(Scenes, RegimesProduceDifferentImages) {
  Rng rng_a(7);
  Rng rng_b(7);
  const Image a = generate_scene(scene_params(Regime::A), rng_a);
  const Image b = generate_scene(scene_params(Regime::B), rng_b);
  // Same seed, different regimes: shapes and/or content must differ.
  const bool differs = !a.same_shape(b) || mse(a, b) > 1.0;
  EXPECT_TRUE(differs);
}

TEST(Scenes, GeometryWithinConfiguredBounds) {
  SceneParams params = scene_params(Regime::B);
  params.min_side = 100;
  params.max_side = 140;
  Rng rng(31);
  for (int i = 0; i < 5; ++i) {
    const Image scene = generate_scene(params, rng);
    EXPECT_GE(scene.width(), 100);
    EXPECT_LE(scene.width(), 140);
    EXPECT_GE(scene.height(), 100);
    EXPECT_LE(scene.height(), 140);
    EXPECT_EQ(scene.channels(), 3);
    EXPECT_GE(scene.min_value(), 0.0f);
    EXPECT_LE(scene.max_value(), 255.0f);
  }
}

TEST(Scenes, EightBitQuantised) {
  SceneParams params = scene_params(Regime::A);
  params.min_side = 64;
  params.max_side = 80;
  Rng rng(32);
  const Image scene = generate_scene(params, rng);
  for (int y = 0; y < scene.height(); y += 5) {
    for (int x = 0; x < scene.width(); x += 5) {
      const float v = scene.at(x, y, 0);
      EXPECT_FLOAT_EQ(v, std::round(v));
    }
  }
}

TEST(Targets, DeterministicAndSized) {
  const auto t1 = generate_targets(32, 24, 2, 5);
  const auto t2 = generate_targets(32, 24, 2, 5);
  ASSERT_EQ(t1.size(), 2u);
  EXPECT_EQ(t1[0].width(), 32);
  EXPECT_EQ(t1[0].height(), 24);
  EXPECT_DOUBLE_EQ(mse(t1[0], t2[0]), 0.0);
  EXPECT_DOUBLE_EQ(mse(t1[1], t2[1]), 0.0);
  EXPECT_GT(mse(t1[0], t1[1]), 1.0);  // distinct targets
}

TEST(Targets, HighContrastContent) {
  Rng rng(33);
  const Image target = generate_target(64, 64, rng);
  EXPECT_GT(target.max_value() - target.min_value(), 100.0f);
}

TEST(Trigger, StampChangesOnlyACentralRegion) {
  Rng rng(34);
  const Image portrait = generate_identity_portrait(1, 128, rng);
  const Image stamped = stamp_trigger(portrait);
  ASSERT_TRUE(stamped.same_shape(portrait));
  // Corners untouched.
  EXPECT_FLOAT_EQ(stamped.at(0, 0, 0), portrait.at(0, 0, 0));
  EXPECT_FLOAT_EQ(stamped.at(127, 127, 2), portrait.at(127, 127, 2));
  // Something changed overall.
  EXPECT_GT(mse(portrait, stamped), 1.0);
}

}  // namespace
}  // namespace decam::data
