// Tests for MSE, PSNR, SSIM (both variants) and the histogram metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/noise.h"
#include "data/rng.h"
#include "metrics/histogram.h"
#include "metrics/mse.h"
#include "metrics/ssim.h"

namespace decam {
namespace {

Image noise_image(int w, int h, int channels, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, channels);
  for (int c = 0; c < channels; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  return img;
}

TEST(Mse, ZeroForIdenticalImages) {
  const Image img = noise_image(8, 8, 3, 1);
  EXPECT_DOUBLE_EQ(mse(img, img), 0.0);
}

TEST(Mse, KnownValue) {
  Image a(2, 1, 1);
  Image b(2, 1, 1);
  a.at(0, 0, 0) = 0.0f;
  b.at(0, 0, 0) = 3.0f;   // diff 3 -> 9
  a.at(1, 0, 0) = 10.0f;
  b.at(1, 0, 0) = 6.0f;   // diff 4 -> 16
  EXPECT_DOUBLE_EQ(mse(a, b), (9.0 + 16.0) / 2.0);
}

TEST(Mse, SymmetricAndShapeChecked) {
  const Image a = noise_image(5, 7, 1, 2);
  const Image b = noise_image(5, 7, 1, 3);
  EXPECT_DOUBLE_EQ(mse(a, b), mse(b, a));
  EXPECT_THROW(mse(a, noise_image(7, 5, 1, 4)), std::invalid_argument);
}

TEST(Mse, GrowsWithPerturbationMagnitude) {
  const Image base = noise_image(16, 16, 1, 5);
  Image small_shift = base;
  Image big_shift = base;
  for (float& v : small_shift.plane(0)) v += 2.0f;
  for (float& v : big_shift.plane(0)) v += 20.0f;
  EXPECT_LT(mse(base, small_shift), mse(base, big_shift));
  EXPECT_NEAR(mse(base, small_shift), 4.0, 1e-6);
  EXPECT_NEAR(mse(base, big_shift), 400.0, 1e-3);
}

TEST(Psnr, InfiniteForIdenticalImages) {
  const Image img = noise_image(8, 8, 1, 6);
  EXPECT_TRUE(std::isinf(psnr(img, img)));
}

TEST(Psnr, MatchesClosedFormForUniformError) {
  Image a(4, 4, 1, 100.0f);
  Image b(4, 4, 1, 110.0f);  // MSE = 100
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-9);
}

TEST(Psnr, DecreasesAsErrorGrows) {
  const Image base(8, 8, 1, 128.0f);
  Image mild(8, 8, 1, 130.0f);
  Image harsh(8, 8, 1, 168.0f);
  EXPECT_GT(psnr(base, mild), psnr(base, harsh));
}

TEST(Ssim, OneForIdenticalImages) {
  const Image img = noise_image(32, 32, 3, 7);
  EXPECT_NEAR(ssim(img, img), 1.0, 1e-9);
}

TEST(Ssim, BoundedAndSymmetric) {
  const Image a = noise_image(24, 24, 1, 8);
  const Image b = noise_image(24, 24, 1, 9);
  const double s = ssim(a, b);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
  EXPECT_NEAR(s, ssim(b, a), 1e-12);
}

TEST(Ssim, DropsUnderStructuralDestruction) {
  data::Rng rng(10);
  data::NoiseParams params;
  // Fine-grained texture: with the default 96-px lattice a 48-px image is
  // a near-flat gradient and even unrelated gradients score high.
  params.base_period = 12.0;
  const Image img = value_noise(48, 48, params, rng);
  // Mild constant brightness shift barely moves SSIM...
  Image shifted = img;
  for (float& v : shifted.plane(0)) v = std::min(v + 8.0f, 255.0f);
  // ...while shuffling structure destroys it.
  const Image unrelated = value_noise(48, 48, params, rng);
  EXPECT_GT(ssim(img, shifted), 0.85);
  EXPECT_LT(ssim(img, unrelated), 0.35);
  EXPECT_LT(ssim(img, unrelated), ssim(img, shifted));
}

TEST(Ssim, OrderingMatchesDegradationStrength) {
  data::Rng rng(11);
  data::NoiseParams params;
  const Image img = value_noise(40, 40, params, rng);
  Image weak = img;
  Image strong = img;
  data::Rng noise_rng(12);
  for (float& v : weak.plane(0)) {
    v += static_cast<float>(noise_rng.next_gaussian() * 5.0);
  }
  for (float& v : strong.plane(0)) {
    v += static_cast<float>(noise_rng.next_gaussian() * 40.0);
  }
  EXPECT_GT(ssim(img, weak), ssim(img, strong));
}

TEST(Ssim, MultichannelAveragesPlanes) {
  const Image a = noise_image(16, 16, 3, 13);
  Image b = a;
  // Corrupt only one channel; SSIM must fall but stay above the
  // all-channels-corrupted value.
  data::Rng rng(14);
  for (float& v : b.plane(0)) {
    v = static_cast<float>(rng.next_range(0.0, 255.0));
  }
  Image c = a;
  data::Rng rng2(15);
  for (int ch = 0; ch < 3; ++ch) {
    for (float& v : c.plane(ch)) {
      v = static_cast<float>(rng2.next_range(0.0, 255.0));
    }
  }
  EXPECT_GT(ssim(a, b), ssim(a, c));
  EXPECT_LT(ssim(a, b), 1.0);
}

TEST(Ssim, ShapeMismatchThrows) {
  EXPECT_THROW(ssim(Image(4, 4, 1), Image(4, 5, 1)), std::invalid_argument);
}

TEST(Histogram, NormalisedPerChannel) {
  const Image img = noise_image(16, 16, 3, 16);
  const auto hist = color_histogram(img, 32);
  ASSERT_EQ(hist.size(), 96u);
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0;
    for (int b = 0; b < 32; ++b) sum += hist[static_cast<std::size_t>(c) * 32 + b];
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Histogram, BinsPlacedCorrectly) {
  Image img(2, 1, 1);
  img.at(0, 0, 0) = 0.0f;    // bin 0
  img.at(1, 0, 0) = 255.0f;  // top bin
  const auto hist = color_histogram(img, 4);
  EXPECT_DOUBLE_EQ(hist[0], 0.5);
  EXPECT_DOUBLE_EQ(hist[3], 0.5);
  EXPECT_DOUBLE_EQ(hist[1], 0.0);
}

TEST(Histogram, IntersectionIsOneForIdenticalAndDropsWithDivergence) {
  const Image a = noise_image(16, 16, 1, 17);
  const auto ha = color_histogram(a, 16);
  EXPECT_NEAR(histogram_intersection(ha, ha), 1.0, 1e-12);
  Image b(16, 16, 1, 255.0f);  // everything in the top bin
  const auto hb = color_histogram(b, 16);
  EXPECT_LT(histogram_intersection(ha, hb), 0.3);
}

TEST(Histogram, RejectsBadBins) {
  const Image img = noise_image(4, 4, 1, 20);
  EXPECT_THROW(color_histogram(img, 0), std::invalid_argument);
  EXPECT_THROW(color_histogram(img, 257), std::invalid_argument);
}

}  // namespace
}  // namespace decam
