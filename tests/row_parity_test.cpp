// The row-fed reductions against the same reductions over stored planes,
// bit for bit (EXPECT_EQ on doubles): the scaling member's round trip
// streamed from its downscale (ResizeRows) into mse() and pair_stats(),
// and the filtering member's rank min/max streamed from the input
// (RankRows) into pair_stats() and mse(). The MSE is also held to the flat
// data-order loop mse() ran before it folded rows, so the sum order is
// pinned independently of the row fold. Shapes cover 1-pixel strips, 2x2,
// images narrower or shorter than the window, every width mod 4,
// batch_mixed's 333x301 and a large odd 1021x1003. The
// simd_dispatch_row_parity and simd_dispatch_avx2_row_parity ctests rerun
// the suite on the scalar and the AVX2 table, and the *OnAvx512 cases run
// it on the AVX-512 table where the host has one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "data/rng.h"
#include "forced_isa.h"
#include "imaging/filter.h"
#include "imaging/scale.h"
#include "metrics/fused.h"
#include "metrics/mse.h"

namespace decam {
namespace {

struct Shape {
  int width;
  int height;
  int channels;
};

const Shape kShapes[] = {{1, 37, 1},   {37, 1, 3},   {2, 2, 3},
                         {20, 17, 3},  {21, 18, 1},  {22, 19, 3},
                         {23, 16, 3},  {4, 30, 3},   {30, 4, 3},
                         {7, 8, 3},    {333, 301, 3}, {1021, 1003, 3}};

std::string label(const Shape& s) {
  return std::to_string(s.width) + "x" + std::to_string(s.height) + "x" +
         std::to_string(s.channels);
}

// Decoded images are integral; half the shapes get fractional samples, so
// nothing here leans on the 8-bit grid.
Image random_image(const Shape& s, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(s.width, s.height, s.channels);
  const bool integral = seed % 2 == 0;
  for (int c = 0; c < s.channels; ++c) {
    for (float& v : img.plane(c)) {
      const double x = rng.next_range(0.0, 256.0);
      v = static_cast<float>(integral ? static_cast<int>(x) : x);
    }
  }
  return img;
}

// mse() as one loop over the flat data, the order every MSE keeps.
double flat_mse(const Image& a, const Image& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d =
        static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]);
    sum += d * d;
  }
  return sum / static_cast<double>(a.size());
}

void expect_same(const PairStats& got, const PairStats& want,
                 const std::string& what) {
  EXPECT_EQ(got.mse, want.mse) << what;
  EXPECT_EQ(got.ssim, want.ssim) << what;
  EXPECT_EQ(got.psnr, want.psnr) << what;
}

// The deployed geometry on large inputs, half the side on small ones.
int down_side(int side) { return side > 224 ? 224 : std::max(1, side / 2); }

void check_streamed_round_trip() {
  std::uint64_t seed = 1;
  for (const ScaleAlgo algo :
       {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
        ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
    for (const Shape& shape : kShapes) {
      const std::string what = std::string(to_string(algo)) + " " +
                               label(shape);
      const Image img = random_image(shape, seed++);
      const int dw = down_side(shape.width);
      const int dh = down_side(shape.height);
      const Image round = scale_round_trip(img, dw, dh, algo, algo);
      const double want = mse(img, round);
      EXPECT_EQ(want, flat_mse(img, round)) << what;
      const PairStats want_stats = pair_stats(img, round);

      const Image down = resize(img, dw, dh, algo);
      {
        ResizeRows up(down, shape.width, shape.height, algo);
        EXPECT_EQ(mse(img, up), want) << what;
      }
      {
        ResizeRows up(down, shape.width, shape.height, algo);
        expect_same(pair_stats(img, up), want_stats, what);
      }
      if (shape.width > dw && shape.height > dh) {
        core::ScalingDetectorConfig config;
        config.down_width = dw;
        config.down_height = dh;
        config.down_algo = config.up_algo = algo;
        EXPECT_EQ(core::ScalingDetector(config).score(img), want) << what;
        config.metric = core::Metric::SSIM;
        EXPECT_EQ(core::ScalingDetector(config).score(img), want_stats.ssim)
            << what;
      }
    }
  }
}

void check_streamed_rank_rows() {
  std::uint64_t seed = 100;
  for (const RankOp op : {RankOp::Min, RankOp::Max}) {
    for (const int k : {2, 3, 5, 9}) {
      for (const Shape& shape : kShapes) {
        const std::string what =
            std::string(op == RankOp::Min ? "min k" : "max k") +
            std::to_string(k) + " " + label(shape);
        const Image img = random_image(shape, seed++);
        const Image filtered = rank_filter(img, k, op);
        const PairStats want = pair_stats(img, filtered);
        EXPECT_EQ(want.mse, flat_mse(img, filtered)) << what;
        {
          RankRows rows(img, k, op);
          expect_same(pair_stats(img, rows), want, what);
        }
        {
          RankRows rows(img, k, op);
          EXPECT_EQ(mse(img, rows), want.mse) << what;
        }
        core::FilteringDetectorConfig config{k, op, core::Metric::SSIM};
        EXPECT_EQ(core::FilteringDetector(config).score(img), want.ssim)
            << what;
        config.metric = core::Metric::MSE;
        EXPECT_EQ(core::FilteringDetector(config).score(img), want.mse)
            << what;
      }
    }
  }
}

TEST(RowParity, StreamedRoundTripMatchesStoredPlane) {
  check_streamed_round_trip();
}

TEST(RowParity, StreamedRankRowsFeedPairStats) { check_streamed_rank_rows(); }

// Both again on the AVX-512 table, whose pair-stats walk runs blocks of
// eight pixels, whatever table the run dispatched.
TEST(RowParity, StreamedRoundTripOnAvx512) {
  const testref::ForcedIsa forced(simd::Isa::Avx512);
  if (!forced.active()) GTEST_SKIP() << "no AVX-512 table on this host";
  check_streamed_round_trip();
}

TEST(RowParity, StreamedRankRowsOnAvx512) {
  const testref::ForcedIsa forced(simd::Isa::Avx512);
  if (!forced.active()) GTEST_SKIP() << "no AVX-512 table on this host";
  check_streamed_rank_rows();
}

// A 1x1 window hands out the input's own rows, as rank_filter(img, 1, op)
// returns the input.
TEST(RowParity, UnitWindowRowsAreTheInput) {
  const Image img = random_image({23, 16, 3}, 7);
  RankRows rows(img, 1, RankOp::Min);
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      EXPECT_EQ(rows.row(y, c), img.row(y, c).data());
    }
  }
}

TEST(RowParity, ShapeMismatchThrows) {
  const Image img = random_image({23, 16, 3}, 8);
  const Image other = random_image({16, 23, 3}, 9);
  RankRows rows(other, 2, RankOp::Min);
  EXPECT_THROW(mse(img, rows), std::invalid_argument);
  EXPECT_THROW(pair_stats(img, rows), std::invalid_argument);
  EXPECT_THROW(RankRows(img, 3, RankOp::Median), std::invalid_argument);
}

}  // namespace
}  // namespace decam
