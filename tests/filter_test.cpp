// Tests for rank filters and blurs, including the attack-revealing property
// of the minimum filter the filtering detector builds on.
#include "imaging/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/rng.h"

namespace decam {
namespace {

Image make_gradient(int w, int h) {
  Image img(w, h, 1);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.at(x, y, 0) = static_cast<float>(x + y * w);
    }
  }
  return img;
}

TEST(RankFilter, MinPicksWindowMinimum) {
  const Image img = make_gradient(4, 4);
  const Image out = rank_filter(img, 2, RankOp::Min);
  // Window anchored top-left: out(x,y) = min over {x,x+1}x{y,y+1}.
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(2, 2, 0), 10.0f);
  // Bottom-right uses edge replication.
  EXPECT_FLOAT_EQ(out.at(3, 3, 0), 15.0f);
}

TEST(RankFilter, MaxPicksWindowMaximum) {
  const Image img = make_gradient(4, 4);
  const Image out = rank_filter(img, 2, RankOp::Max);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(2, 2, 0), 15.0f);
}

TEST(RankFilter, MedianRemovesImpulseNoise) {
  Image img(5, 5, 1, 100.0f);
  img.at(2, 2, 0) = 255.0f;  // single hot pixel
  const Image out = median_filter(img, 3);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      EXPECT_FLOAT_EQ(out.at(x, y, 0), 100.0f);
    }
  }
}

TEST(RankFilter, WindowOfOneIsIdentity) {
  data::Rng rng(3);
  Image img(6, 5, 2);
  for (int c = 0; c < 2; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  for (const RankOp op : {RankOp::Min, RankOp::Median, RankOp::Max}) {
    const Image out = rank_filter(img, 1, op);
    for (int c = 0; c < 2; ++c) {
      for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 6; ++x) {
          EXPECT_FLOAT_EQ(out.at(x, y, c), img.at(x, y, c));
        }
      }
    }
  }
}

TEST(RankFilter, OrderingInvariantMinLeMedianLeMax) {
  data::Rng rng(4);
  Image img(16, 12, 1);
  for (float& v : img.plane(0)) {
    v = static_cast<float>(rng.next_range(0.0, 255.0));
  }
  const Image mn = rank_filter(img, 3, RankOp::Min);
  const Image md = median_filter(img, 3);
  const Image mx = rank_filter(img, 3, RankOp::Max);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      EXPECT_LE(mn.at(x, y, 0), md.at(x, y, 0));
      EXPECT_LE(md.at(x, y, 0), mx.at(x, y, 0));
      EXPECT_LE(mn.at(x, y, 0), img.at(x, y, 0));
      EXPECT_GE(mx.at(x, y, 0), img.at(x, y, 0));
    }
  }
}

TEST(RankFilter, ChannelsFilteredIndependently) {
  Image img(3, 3, 2, 10.0f);
  img.at(1, 1, 1) = 0.0f;  // dark pixel only in channel 1
  const Image out = rank_filter(img, 2, RankOp::Min);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 0.0f);
}

TEST(RankFilter, RevealsEmbeddedDarkPixelsLikeTheAttack) {
  // Sparse dark pixels on a bright field (the signature of an attack image
  // hiding a dark target) spread to whole blocks under a 2x2 min filter —
  // exactly why the filtering detector works.
  Image img(8, 8, 1, 200.0f);
  for (int y = 0; y < 8; y += 2) {
    for (int x = 0; x < 8; x += 2) img.at(x, y, 0) = 5.0f;
  }
  const Image out = rank_filter(img, 2, RankOp::Min);
  int dark = 0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      if (out.at(x, y, 0) < 10.0f) ++dark;
    }
  }
  // 16 dark pixels became (almost) the whole image.
  EXPECT_GE(dark, 36);
}

// The NaN rule of imaging/filter.h for min/max: NaN exactly where the
// window's anchor sample is NaN; a window row whose leftmost sample is NaN
// drops out whole; any other NaN is skipped.
TEST(RankFilter, MinMaxNaNRule) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Rows, top to bottom:  5   3   7 / NaN  1   9 / 4  NaN  2
  Image img(3, 3, 1);
  const float in[9] = {5, 3, 7, nan, 1, 9, 4, nan, 2};
  std::copy(in, in + 9, img.data());
  auto expect = [&](RankOp op, int k, const float (&want)[9]) {
    const Image out = rank_filter(img, k, op);
    for (int i = 0; i < 9; ++i) {
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(out.data()[i]))
            << "k=" << k << " sample " << i << " got " << out.data()[i];
      } else {
        EXPECT_EQ(out.data()[i], want[i]) << "k=" << k << " sample " << i;
      }
    }
  };
  // k = 2 min at (0, 0): row 1 starts with NaN and drops out with its 1.
  // At (0, 2) the NaN is not leftmost in its row and is skipped.
  expect(RankOp::Min, 2, {3, 1, 7, nan, 1, 2, 4, nan, 2});
  expect(RankOp::Max, 2, {5, 9, 9, nan, 9, 9, 4, nan, 2});
  // k = 3 at (0, 0): rows 0 and 2 count, row 1 (and its 1 and 9) does not.
  expect(RankOp::Min, 3, {2, 1, 2, nan, 1, 2, 2, nan, 2});
  expect(RankOp::Max, 3, {7, 9, 9, nan, 9, 9, 4, nan, 2});
}

TEST(RankFilter, MedianNaNRule) {
  // A NaN counts as larger than every number, so a median is NaN exactly
  // when at least k^2 - floor(k^2 / 2) window samples are NaN. One row, so
  // each window holds each of its columns k times.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Image img(5, 1, 1);
  const float in[5] = {nan, 1, 2, nan, nan};
  std::copy(in, in + 5, img.data());
  const auto expect = [&](int k, const float (&want)[5]) {
    const Image out = rank_filter(img, k, RankOp::Median);
    for (int i = 0; i < 5; ++i) {
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(out.data()[i]))
            << "k=" << k << " sample " << i << " got " << out.data()[i];
      } else {
        EXPECT_EQ(out.data()[i], want[i]) << "k=" << k << " sample " << i;
      }
    }
  };
  expect(2, {nan, 2, nan, nan, nan});
  expect(3, {2, 2, nan, nan, nan});
}

TEST(RankFilter, RejectsBadWindow) {
  const Image img(4, 4, 1);
  EXPECT_THROW(rank_filter(img, 0, RankOp::Min), std::invalid_argument);
  EXPECT_THROW(rank_filter(Image(), 2, RankOp::Min), std::invalid_argument);
}

TEST(GaussianBlur, PreservesConstantAndMass) {
  const Image img(9, 9, 1, 77.0f);
  const Image out = gaussian_blur(img, 1.2);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 9; ++x) {
      EXPECT_NEAR(out.at(x, y, 0), 77.0f, 1e-3f);
    }
  }
}

TEST(GaussianBlur, SmoothsAnImpulseSymmetrically) {
  Image img(11, 11, 1, 0.0f);
  img.at(5, 5, 0) = 100.0f;
  const Image out = gaussian_blur(img, 1.0);
  EXPECT_GT(out.at(5, 5, 0), out.at(4, 5, 0));
  EXPECT_NEAR(out.at(4, 5, 0), out.at(6, 5, 0), 1e-4f);
  EXPECT_NEAR(out.at(5, 4, 0), out.at(5, 6, 0), 1e-4f);
  EXPECT_NEAR(out.at(4, 5, 0), out.at(5, 4, 0), 1e-4f);
}

TEST(GaussianBlur, RejectsNonPositiveSigma) {
  const Image img(4, 4, 1);
  EXPECT_THROW(gaussian_blur(img, 0.0), std::invalid_argument);
  EXPECT_THROW(gaussian_blur(img, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace decam
