// Golden parity tests: the optimized kernels in src/imaging/ (separable
// min/max folds and the median paths of the rank filter, scanline
// convolution, row-major flattened-table resize), the fused pair-stats
// walk of src/metrics/ and the steganalysis detector's CSP walk against the
// retained naive reference implementations in reference_kernels.h.
//
// Tolerance policy (see imaging/filter.h): rank filters select actual input
// samples and must match bit-for-bit, min/max down to the sign of a zero
// (the window's first extremum); gaussian_blur and pair_stats keep the
// exact per-accumulator arithmetic sequence and must also match
// bit-for-bit; against the column-strided reference, resize gets a
// max-abs-diff budget of 1e-6 of full scale (inputs live in [0, 255]),
// and against its own two-pass sequence (apply_kernel on every row, then
// the vertical row ops) it must match bit for bit on every SIMD table.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "forced_isa.h"
#include "imaging/filter.h"
#include "imaging/kernels.h"
#include "imaging/scale.h"
#include "metrics/fused.h"
#include "obs/metrics.h"
#include "reference_kernels.h"
#include "signal/spectrum.h"

namespace decam {
namespace {

constexpr float kFullScaleTol = 255.0f * 1e-6f;

Image random_image(int w, int h, int c, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, c);
  for (int ch = 0; ch < c; ++ch) {
    for (float& v : img.plane(ch)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  return img;
}

void expect_identical(const Image& got, const Image& want,
                      const std::string& what) {
  ASSERT_EQ(got.width(), want.width()) << what;
  ASSERT_EQ(got.height(), want.height()) << what;
  ASSERT_EQ(got.channels(), want.channels()) << what;
  for (int c = 0; c < want.channels(); ++c) {
    for (int y = 0; y < want.height(); ++y) {
      for (int x = 0; x < want.width(); ++x) {
        ASSERT_EQ(got.at(x, y, c), want.at(x, y, c))
            << what << " at (" << x << ", " << y << ", " << c << ")";
      }
    }
  }
}

void expect_close(const Image& got, const Image& want, float tol,
                  const std::string& what) {
  ASSERT_EQ(got.width(), want.width()) << what;
  ASSERT_EQ(got.height(), want.height()) << what;
  ASSERT_EQ(got.channels(), want.channels()) << what;
  for (int c = 0; c < want.channels(); ++c) {
    for (int y = 0; y < want.height(); ++y) {
      for (int x = 0; x < want.width(); ++x) {
        const float diff = std::fabs(got.at(x, y, c) - want.at(x, y, c));
        ASSERT_LE(diff, tol)
            << what << " at (" << x << ", " << y << ", " << c << ")";
      }
    }
  }
}

struct Shape {
  int w, h, c;
};

// Odd and even k, k larger than either dimension, 1- and 3-channel images,
// degenerate 1xN / Nx1 strips, and images no larger than one window.
const Shape kRankShapes[] = {{31, 17, 1}, {16, 16, 3}, {1, 13, 1},
                             {13, 1, 3},  {5, 5, 1},   {1, 1, 1},
                             {2, 2, 3},   {3, 3, 1}};
const int kRankKs[] = {1, 2, 3, 4, 5, 9};

TEST(RankFilterParity, MinMaxMedianMatchReferenceExactly) {
  for (const Shape& s : kRankShapes) {
    const Image img = random_image(s.w, s.h, s.c, 1000u + s.w * 7u + s.h);
    for (const int k : kRankKs) {
      for (const RankOp op : {RankOp::Min, RankOp::Median, RankOp::Max}) {
        const std::string what = std::to_string(s.w) + "x" +
                                 std::to_string(s.h) + "x" +
                                 std::to_string(s.c) + " k=" +
                                 std::to_string(k) + " op=" +
                                 std::to_string(static_cast<int>(op));
        expect_identical(rank_filter(img, k, op),
                         testref::rank_filter(img, k, op), what);
      }
    }
  }
}

// The filtering member's min (and Fig. 4's max) at a scan geometry:
// batch_mixed's 333x301 RGB, both the deployed k = 2 and k = 3.
TEST(RankFilterParity, MinMaxMatchReferenceAtScanGeometry) {
  const Image img = random_image(333, 301, 3, 1333);
  for (const int k : {2, 3}) {
    for (const RankOp op : {RankOp::Min, RankOp::Max}) {
      expect_identical(rank_filter(img, k, op),
                       testref::rank_filter(img, k, op),
                       "333x301x3 k=" + std::to_string(k) +
                           " op=" + std::to_string(static_cast<int>(op)));
    }
  }
}

// +0 and -0 compare equal, so on a tie the sign bit shows which sample the
// filter returned. The reference returns the window's first extremum in
// row-major order (std::min_element / max_element); the min/max folds must
// return that same sample. Min runs on {-0, +0, 1}, max on {-0, +0, -1}, so
// most windows hold zeros of both signs and the first one decides.
TEST(RankFilterParity, MinMaxSignedZeroTiesMatchReferenceBitForBit) {
  for (const RankOp op : {RankOp::Min, RankOp::Max}) {
    const float other = op == RankOp::Min ? 1.0f : -1.0f;
    const float values[] = {-0.0f, 0.0f, other};
    data::Rng rng(op == RankOp::Min ? 71u : 72u);
    Image img(17, 13, 2);
    for (int c = 0; c < img.channels(); ++c) {
      for (float& v : img.plane(c)) v = values[rng.next_int(0, 2)];
    }
    for (const int k : {2, 3, 4, 5, 9}) {
      const Image got = rank_filter(img, k, op);
      const Image want = testref::rank_filter(img, k, op);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
                  std::bit_cast<std::uint32_t>(want.data()[i]))
            << "op=" << static_cast<int>(op) << " k=" << k << " sample " << i;
      }
    }
  }
}

// The median routes (imaging/filter.h). Quantised values land on the 8-bit
// grid (the selection network at k = 3, the sorted window at every other
// k), i/256 values off it (the sorted window); both must reproduce the
// naive reference bit for bit, k = 15 included (larger than every test
// shape, so the whole window is border replication).
const int kGridKs[] = {1, 2, 3, 4, 5, 9, 15};

Image random_grid8_image(int w, int h, int c, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, c);
  for (int ch = 0; ch < c; ++ch) {
    for (float& v : img.plane(ch)) {
      v = static_cast<float>(static_cast<int>(rng.next_range(0.0, 256.0)));
    }
  }
  return img;
}

Image random_i256_image(int w, int h, int c, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, c);
  for (int ch = 0; ch < c; ++ch) {
    for (float& v : img.plane(ch)) {
      const int i = static_cast<int>(rng.next_range(0.0, 65536.0));
      v = static_cast<float>(i) * (1.0f / 256.0f);  // exact: 2^-8 scale
    }
  }
  return img;
}

TEST(RankFilterParity, MedianGrid8MatchesReferenceExactly) {
  // Besides kRankShapes: widths around the 16-byte vectors of the k = 3
  // selection network and its two replicated columns, heights around its
  // clamped 3-row window.
  std::vector<Shape> shapes(std::begin(kRankShapes), std::end(kRankShapes));
  for (const int w : {1, 2, 3, 4, 15, 16, 17, 31, 32, 33, 64, 65}) {
    for (const int h : {1, 2, 3, 5}) {
      for (const int c : {1, 3}) shapes.push_back({w, h, c});
    }
  }
  for (const Shape& s : shapes) {
    const Image img = random_grid8_image(s.w, s.h, s.c, 4000u + s.w * 7u + s.h);
    ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
    for (const int k : kGridKs) {
      expect_identical(rank_filter(img, k, RankOp::Median),
                       testref::rank_filter(img, k, RankOp::Median),
                       "grid8 " + std::to_string(s.w) + "x" +
                           std::to_string(s.h) + "x" + std::to_string(s.c) +
                           " k=" + std::to_string(k));
    }
  }
}

TEST(RankFilterParity, Median3NetworkMatchesReferenceOnEveryBinaryImage) {
  // The k = 3 Grid8 median is a min/max network, so by the 0-1 principle
  // matching the reference on every {0, 255} input proves it for all
  // inputs: the window at (0, 0) of a 3x3 image is all nine pixels, and
  // the other eight windows cover the clamped-border layouts. The two
  // values are also the ends of the u8 relabeling.
  for (int bits = 0; bits < 512; ++bits) {
    Image img(3, 3, 1);
    for (int i = 0; i < 9; ++i) img.data()[i] = (bits >> i) & 1 ? 255.0f : 0.0f;
    ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
    expect_identical(rank_filter(img, 3, RankOp::Median),
                     testref::rank_filter(img, 3, RankOp::Median),
                     "binary image " + std::to_string(bits));
  }
}

TEST(RankFilterParity, MedianGrid16MatchesReferenceExactly) {
  for (const Shape& s : kRankShapes) {
    const Image img =
        random_i256_image(s.w, s.h, s.c, 5000u + s.w * 7u + s.h);
    ASSERT_EQ(classify_median_path(img), MedianPath::Exact);
    for (const int k : kGridKs) {
      expect_identical(rank_filter(img, k, RankOp::Median),
                       testref::rank_filter(img, k, RankOp::Median),
                       "i/256 " + std::to_string(s.w) + "x" +
                           std::to_string(s.h) + "x" + std::to_string(s.c) +
                           " k=" + std::to_string(k));
    }
  }
}

TEST(RankFilterParity, OffGridMedianFallsBackAndMatches) {
  // One off-grid pixel disqualifies the whole image; the exact sorted-window
  // fallback must still reproduce the reference on the unchanged pixels.
  // Negative integers are off the grid too: relabeled as u8 they would
  // wrap (-1 to 255) and move the median.
  Image fractional = random_grid8_image(16, 16, 3, 6001);
  fractional.plane(1)[37] = 0.3f;
  Image negative = random_grid8_image(16, 16, 3, 6002);
  negative.plane(0)[40] = -1.0f;
  negative.plane(2)[77] = -255.0f;
  for (const auto& [img, name] : {std::pair{&fractional, "fractional"},
                                  std::pair{&negative, "negative"}}) {
    ASSERT_EQ(classify_median_path(*img), MedianPath::Exact) << name;
    for (const int k : {2, 3, 9}) {
      expect_identical(rank_filter(*img, k, RankOp::Median),
                       testref::rank_filter(*img, k, RankOp::Median),
                       std::string(name) + " k=" + std::to_string(k));
    }
  }
}

TEST(MedianClassifier, RoutesByRepresentability) {
  const auto one_pixel = [](float v) {
    Image img(3, 3, 1);
    for (float& p : img.plane(0)) p = 7.0f;
    img.plane(0)[4] = v;
    return img;
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(classify_median_path(one_pixel(0.0f)), MedianPath::Grid8);
  EXPECT_EQ(classify_median_path(one_pixel(-0.0f)), MedianPath::Grid8);
  EXPECT_EQ(classify_median_path(one_pixel(255.0f)), MedianPath::Grid8);
  EXPECT_EQ(classify_median_path(one_pixel(0.5f)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(255.5f)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(65535.0f / 256.0f)),
            MedianPath::Exact);  // i/256, but off the 8-bit grid
  EXPECT_EQ(classify_median_path(one_pixel(0.3f)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(-1.0f)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(256.0f)),
            MedianPath::Exact);  // integral but past the grid top
  EXPECT_EQ(classify_median_path(one_pixel(300.25f)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(1e30f)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(
                one_pixel(std::numeric_limits<float>::quiet_NaN())),
            MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(kInf)), MedianPath::Exact);
  EXPECT_EQ(classify_median_path(one_pixel(-kInf)), MedianPath::Exact);

  // Multi-channel: one off-grid plane decides for the whole image.
  Image mixed(4, 4, 2);
  for (float& p : mixed.plane(0)) p = 12.0f;   // grid8 on its own
  for (float& p : mixed.plane(1)) p = 12.5f;   // off the grid
  EXPECT_EQ(classify_median_path(mixed), MedianPath::Exact);
  mixed.plane(1)[0] = 0.1f;
  EXPECT_EQ(classify_median_path(mixed), MedianPath::Exact);
}

TEST(MedianClassifier, OneSampleDecidesAtEveryBlockEdge) {
  // The classifier is the k = 3 route's row check (SimdOps::grid8_u8), whose
  // AVX2 body takes 32 samples a step and whose tail takes the rest, so a
  // single disqualifying sample must count wherever it sits: both sides of
  // each vector edge, the tail, and both ends of the first, a middle and
  // the last row of each plane.
  Image img(100, 5, 2);  // three 32-sample steps and a 4-sample tail a row
  for (float& v : img.plane(0)) v = 9.0f;
  for (float& v : img.plane(1)) v = 200.0f;
  ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
  for (int c = 0; c < img.channels(); ++c) {
    for (const int y : {0, 2, img.height() - 1}) {
      for (const int x : {0, 1, 15, 16, 31, 32, 33, 63, 64, 95, 96, 98, 99}) {
        for (const float value : {0.3f, 0.5f, -1.0f}) {
          Image probe = img;
          probe.row(y, c).data()[x] = value;
          EXPECT_EQ(classify_median_path(probe), MedianPath::Exact)
              << "sample " << value << " at (" << x << ", " << y << ", " << c
              << ")";
        }
      }
    }
  }
}

// The one-pass k = 3 median against the two-pass route it replaced
// (testref::median3_two_pass), bit for bit: widths across the row check's
// and the network's vector bodies and tails, heights around the 3-row ring,
// and -0.0 samples, which both routes return as +0.0. Then one off-grid
// sample in the first row of channel 0, where the pass stops before it
// writes a row, or in the last row of the last channel, where it stops
// after writing nearly all of them: every output sample must then be the
// exact route's, and the run must count as exact, not grid8. A NaN counts
// as larger than every number there (imaging/filter.h), as in the naive
// reference.
TEST(RankFilterParity, OnePassMedianMatchesTwoPassRoute) {
  obs::Counter& grid8 =
      obs::MetricsRegistry::instance().counter("rank_median/grid8");
  obs::Counter& exact =
      obs::MetricsRegistry::instance().counter("rank_median/exact");
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float off_grid[] = {0.5f, -1.0f, 256.0f,
                            std::numeric_limits<float>::quiet_NaN(), kInf};
  for (const int w : {1, 2, 31, 32, 33, 64, 65, 333}) {
    for (const int h : {1, 2, 3, 5}) {
      for (const int c : {1, 3}) {
        const std::string shape = std::to_string(w) + "x" +
                                  std::to_string(h) + "x" + std::to_string(c);
        Image img = random_grid8_image(w, h, c, 7000u + w * 7u + h);
        for (std::size_t i = 0; i < img.size(); i += 5) img.data()[i] = -0.0f;
        const std::optional<Image> want = testref::median3_two_pass(img);
        ASSERT_TRUE(want.has_value()) << shape;
        std::uint64_t grid8_at = grid8.value();
        std::uint64_t exact_at = exact.value();
        const Image got = rank_filter(img, 3, RankOp::Median);
        EXPECT_EQ(grid8.value(), grid8_at + 1) << shape;
        EXPECT_EQ(exact.value(), exact_at) << shape;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
                    std::bit_cast<std::uint32_t>(want->data()[i]))
              << shape << " sample " << i;
        }
        for (const bool late : {false, true}) {
          for (const float value : off_grid) {
            const int at_c = late ? c - 1 : 0;
            const int at_y = late ? h - 1 : 0;
            const int at_x = w / 2;
            Image probe = img;
            probe.row(at_y, at_c).data()[at_x] = value;
            const std::string what = shape + " value " +
                                     std::to_string(value) +
                                     (late ? " in the last row" :
                                             " in the first row");
            ASSERT_FALSE(testref::median3_two_pass(probe).has_value())
                << what;
            grid8_at = grid8.value();
            exact_at = exact.value();
            const Image out = rank_filter(probe, 3, RankOp::Median);
            EXPECT_EQ(grid8.value(), grid8_at) << what;
            EXPECT_EQ(exact.value(), exact_at + 1) << what;
            const Image ref = testref::rank_filter(probe, 3, RankOp::Median);
            for (std::size_t i = 0; i < out.size(); ++i) {
              const float got_i = out.data()[i];
              const float want_i = ref.data()[i];
              ASSERT_TRUE(std::isnan(want_i) ? std::isnan(got_i)
                                             : got_i == want_i)
                  << what << " sample " << i << ": " << got_i << " vs "
                  << want_i;
            }
          }
        }
      }
    }
  }
}

TEST(RankFilterParity, ConstantImageIsFixedPoint) {
  Image img(9, 6, 1);
  for (float& v : img.plane(0)) v = 42.5f;
  for (const int k : {2, 3, 9}) {
    for (const RankOp op : {RankOp::Min, RankOp::Median, RankOp::Max}) {
      const Image out = rank_filter(img, k, op);
      for (int y = 0; y < out.height(); ++y) {
        for (int x = 0; x < out.width(); ++x) {
          ASSERT_EQ(out.at(x, y, 0), 42.5f) << "k=" << k;
        }
      }
    }
  }
}

TEST(GaussianBlurParity, ScanlineConvolveIsBitCompatible) {
  const Image img = random_image(25, 19, 3, 77);
  for (const double sigma : {0.8, 1.5, 3.0}) {
    expect_identical(gaussian_blur(img, sigma),
                     testref::gaussian_blur(img, sigma),
                     "sigma=" + std::to_string(sigma));
  }
  // Degenerate strips: every read is border-clamped in one direction.
  const Image strip_h = random_image(13, 1, 1, 78);
  const Image strip_v = random_image(1, 13, 1, 79);
  expect_identical(gaussian_blur(strip_h, 1.5),
                   testref::gaussian_blur(strip_h, 1.5), "13x1 sigma=1.5");
  expect_identical(gaussian_blur(strip_v, 1.5),
                   testref::gaussian_blur(strip_v, 1.5), "1x13 sigma=1.5");
}

struct ResizeCase {
  int in_w, in_h, out_w, out_h, c;
};

TEST(ResizeParity, RowMajorPassMatchesColumnStridedReference) {
  const ResizeCase cases[] = {
      {37, 29, 11, 7, 3},   // downscale
      {11, 7, 37, 29, 3},   // upscale
      {23, 23, 23, 23, 1},  // identity geometry
      {7, 3, 3, 7, 1},      // shrink one axis, grow the other
      {2, 2, 64, 64, 1},    // heavy border clamping for wide kernels
      {1, 13, 1, 5, 1},     // degenerate 1xN
      {13, 1, 5, 1, 3},     // degenerate Nx1
  };
  for (const ResizeCase& rc : cases) {
    const Image img =
        random_image(rc.in_w, rc.in_h, rc.c, 3000u + rc.in_w * 13u + rc.out_w);
    for (const ScaleAlgo algo :
         {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
          ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
      const std::string what = std::string(to_string(algo)) + " " +
                               std::to_string(rc.in_w) + "x" +
                               std::to_string(rc.in_h) + "->" +
                               std::to_string(rc.out_w) + "x" +
                               std::to_string(rc.out_h);
      expect_close(resize(img, rc.out_w, rc.out_h, algo),
                   testref::resize(img, rc.out_w, rc.out_h, algo),
                   kFullScaleTol, what);
    }
  }
}

// Downscales by more than 4x run the horizontal pass only on the source
// rows a vertical tap names. The rows it skips stay unset — quiet NaNs
// under AddressSanitizer — so a vertical tap that reads one fails here.
TEST(ResizeParity, LargeDownscaleSkipsOnlyUntappedRows) {
  const ResizeCase cases[] = {
      {97, 83, 13, 11, 3},  // both axes, 7.5x
      {20, 90, 20, 9, 1},   // vertical only, 10x
      {61, 200, 7, 23, 3},  // 8.7x, a tall source
  };
  for (const ResizeCase& rc : cases) {
    const Image img =
        random_image(rc.in_w, rc.in_h, rc.c, 6000u + rc.in_h * 13u + rc.out_h);
    for (const ScaleAlgo algo :
         {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
          ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
      const std::string what = std::string(to_string(algo)) + " " +
                               std::to_string(rc.in_w) + "x" +
                               std::to_string(rc.in_h) + "->" +
                               std::to_string(rc.out_w) + "x" +
                               std::to_string(rc.out_h);
      expect_close(resize(img, rc.out_w, rc.out_h, algo),
                   testref::resize(img, rc.out_w, rc.out_h, algo),
                   kFullScaleTol, what);
    }
  }
}

// resize() as it ran before its four-row horizontal pass: apply_kernel on
// every source row, then the vertical pass as ResizeRows::write_row runs it
// on the active table (the first tap's row assigned or started, the middle
// ones added, the last one finishing the sum and the cast). Bit for bit
// what resize() and ResizeRows return, NaN payloads included.
Image two_pass_resize(const Image& src, int out_w, int out_h, ScaleAlgo algo) {
  const simd::SimdOps& ops = simd::ops();
  const KernelTable horiz = make_kernel_table(src.width(), out_w, algo);
  const KernelTable vert = make_kernel_table(src.height(), out_h, algo);
  Image mid(out_w, src.height(), src.channels());
  Image out(out_w, out_h, src.channels());
  std::vector<double> acc(static_cast<std::size_t>(out_w));
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < src.height(); ++y) {
      apply_kernel(horiz, src.row(y, c).data(), 1, mid.row(y, c).data(), 1);
    }
    for (int y = 0; y < out_h; ++y) {
      const auto taps = vert.row(y);
      const std::size_t n = taps.size();
      const auto in = [&](std::size_t t) {
        return mid.row(taps[t].index, c).data();
      };
      float* row = out.row(y, c).data();
      if (n == 1) {
        ops.weighted_assign_f32(row, in(0), taps[0].weight, out_w);
        continue;
      }
      ops.weighted_init_f64(acc.data(), in(0), taps[0].weight, out_w);
      for (std::size_t t = 1; t + 1 < n; ++t) {
        ops.weighted_add_f64(acc.data(), in(t), taps[t].weight, out_w);
      }
      ops.weighted_finish_f32(row, acc.data(), in(n - 1), taps[n - 1].weight,
                              out_w);
    }
  }
  return out;
}

void expect_same_bits(const float* got, const float* want, int n,
                      const std::string& what) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

void expect_same_bits(const Image& got, const Image& want,
                      const std::string& what) {
  ASSERT_EQ(got.width(), want.width()) << what;
  ASSERT_EQ(got.height(), want.height()) << what;
  ASSERT_EQ(got.channels(), want.channels()) << what;
  for (int c = 0; c < want.channels(); ++c) {
    for (int y = 0; y < want.height(); ++y) {
      expect_same_bits(got.row(y, c).data(), want.row(y, c).data(),
                       want.width(),
                       what + " row " + std::to_string(y) + " channel " +
                           std::to_string(c));
    }
  }
}

constexpr ScaleAlgo kAllAlgos[] = {ScaleAlgo::Nearest, ScaleAlgo::Bilinear,
                                   ScaleAlgo::Bicubic, ScaleAlgo::Area,
                                   ScaleAlgo::Lanczos4};

// Random samples in [-255, 255] with -0.0, NaN and +-Inf planted: 1 in 16
// samples is special, so most windows hold none and some hold two.
std::vector<float> special_row(int n, std::uint64_t seed) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                            kInf, -kInf};
  data::Rng rng(seed);
  std::vector<float> row(static_cast<std::size_t>(n));
  for (float& v : row) {
    v = static_cast<float>(rng.next_range(-255.0, 255.0));
    if (rng.next_range(0.0, 16.0) < 1.0) {
      v = specials[static_cast<int>(rng.next_range(0.0, 4.0)) % 4];
    }
  }
  return row;
}

// The four-row horizontal pass of every runnable table against
// apply_kernel, bit for bit: every scaler, sources of 1-3 samples (where
// clamped border taps coalesce) up to 1021, output widths 1-9 (every tail
// after the four-output transpose), 224, 512 and 1021, and rows holding
// -0.0, NaN and infinities besides ordinary samples. One row is all -0.0,
// so a pass that skipped the 0.0 each sum starts from would return -0.0.
// Buffers are sized exactly, so a sanitizer build sees an access past one.
TEST(ResizeParity, FourRowPassMatchesApplyKernelBitForBit) {
  const int in_sizes[] = {1, 2, 3, 7, 224, 1021};
  const int out_sizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 224, 512, 1021};
  for (const simd::Isa isa : testref::runnable_isas()) {
    const testref::ForcedIsa forced(isa);
    ASSERT_TRUE(forced.active());
    const simd::SimdOps& ops = simd::ops();
    std::uint64_t seed = 7000;
    for (const ScaleAlgo algo : kAllAlgos) {
      for (const int in_size : in_sizes) {
        std::vector<std::vector<float>> rows;
        for (int r = 0; r < 3; ++r) {
          rows.push_back(special_row(in_size, ++seed));
        }
        rows.emplace_back(static_cast<std::size_t>(in_size), -0.0f);
        for (const int out_size : out_sizes) {
          const KernelTable table = make_kernel_table(in_size, out_size, algo);
          // The all -0.0 row takes each lane in turn.
          std::rotate(rows.begin(), rows.begin() + 1, rows.end());
          std::vector<std::vector<float>> got(
              4, std::vector<float>(static_cast<std::size_t>(out_size)));
          std::vector<double> work(4 * static_cast<std::size_t>(in_size));
          const float* in[4];
          float* out[4];
          for (int r = 0; r < 4; ++r) {
            in[r] = rows[static_cast<std::size_t>(r)].data();
            out[r] = got[static_cast<std::size_t>(r)].data();
          }
          ops.resize_rows4(table.taps.data(), table.offsets.data(), out_size,
                           in, in_size, work.data(), out);
          for (int r = 0; r < 4; ++r) {
            std::vector<float> want(static_cast<std::size_t>(out_size));
            apply_kernel(table, in[r], 1, want.data(), 1);
            expect_same_bits(out[r], want.data(), out_size,
                             std::string(ops.name) + " " + to_string(algo) +
                                 " " + std::to_string(in_size) + "->" +
                                 std::to_string(out_size) + " row " +
                                 std::to_string(r));
          }
        }
      }
    }
  }
}

// ResizeRows runs the source rows it needs four at a time and the 0-3 left
// of each plane through apply_kernel. Sources of 1-9 rows, kept, grown or
// halved vertically, run every leftover count after 0-2 whole groups, on
// every runnable table, with special samples planted.
TEST(ResizeParity, RowGroupsMatchTwoPassReference) {
  std::uint64_t seed = 8000;
  for (const simd::Isa isa : testref::runnable_isas()) {
    const testref::ForcedIsa forced(isa);
    ASSERT_TRUE(forced.active());
    for (int h = 1; h <= 9; ++h) {
      Image img = Image::uninitialized(13, h, 2);
      for (int c = 0; c < 2; ++c) {
        const std::vector<float> plane = special_row(13 * h, ++seed);
        std::copy(plane.begin(), plane.end(), img.plane(c).begin());
      }
      for (const ScaleAlgo algo : kAllAlgos) {
        for (const int out_h : {h, h + 3, std::max(1, h / 2)}) {
          for (const int out_w : {1, 5, 9, 24}) {
            const std::string what =
                std::string(simd::to_string(isa)) + " " + to_string(algo) +
                " 13x" + std::to_string(h) + "->" + std::to_string(out_w) +
                "x" + std::to_string(out_h);
            expect_same_bits(resize(img, out_w, out_h, algo),
                             two_pass_resize(img, out_w, out_h, algo), what);
          }
        }
      }
    }
  }
}

// The scan's geometries to and from the 224² model input keep their bits
// on every runnable table, through resize() and through the rows
// ResizeRows hands out.
TEST(ResizeParity, ScanGeometriesMatchTwoPassReference) {
  const std::pair<int, int> sides[] = {
      {333, 301}, {448, 448}, {512, 512}, {640, 480}, {1024, 768}};
  const Image small = random_image(224, 224, 3, 9000);
  for (const simd::Isa isa : testref::runnable_isas()) {
    const testref::ForcedIsa forced(isa);
    ASSERT_TRUE(forced.active());
    for (const auto& [w, h] : sides) {
      const Image big = random_image(w, h, 3, 9001u + w);
      for (const ScaleAlgo algo : kAllAlgos) {
        const std::string what = std::string(simd::to_string(isa)) + " " +
                                 to_string(algo) + " " + std::to_string(w) +
                                 "x" + std::to_string(h);
        expect_same_bits(resize(big, 224, 224, algo),
                         two_pass_resize(big, 224, 224, algo), what + " down");
        const Image want = two_pass_resize(small, w, h, algo);
        expect_same_bits(resize(small, w, h, algo), want, what + " up");
        ResizeRows rows(small, w, h, algo);
        for (int c = 0; c < 3; ++c) {
          for (int y = 0; y < h; ++y) {
            expect_same_bits(rows.row(y, c), want.row(y, c).data(), w,
                             what + " rows " + std::to_string(y));
          }
        }
      }
    }
  }
}

// The fused walk against the definition, bit for bit, on shapes the
// battery goldens never reach: a partial last 4-pixel block (every width
// mod 4), images narrower or shorter than the 11-tap window, 1-pixel
// strips where every tap is edge-clamped, widths around one and two
// products strips (S = kPairStrip pixels), where the clamped first and last
// strips meet or are one, batch_mixed's 333x301 and a 1021-wide strip of
// many products strips.
void check_pair_stats_odd_shapes() {
  constexpr int S = simd::kPairStrip;
  const std::pair<int, int> shapes[] = {
      {1, 1},     {1, 17},    {17, 1},     {3, 5},     {4, 4},
      {5, 13},    {11, 11},   {13, 12},    {37, 29},   {S - 1, 7},
      {S, 7},     {S + 1, 7}, {2 * S - 1, 7}, {2 * S, 7}, {2 * S + 1, 7},
      {333, 301}, {1021, 3}};
  for (const auto& [w, h] : shapes) {
    for (const int c : {1, 3}) {
      const Image a = random_image(w, h, c, 4000u + w * 37u + h);
      const Image filtered = rank_filter(a, 2, RankOp::Min);
      const Image unrelated = random_image(w, h, c, 5000u + w * 37u + h);
      for (const Image* b : {&filtered, &unrelated}) {
        const std::string what = std::to_string(w) + "x" + std::to_string(h) +
                                 "x" + std::to_string(c) +
                                 (b == &filtered ? " min2" : " random");
        const PairStats got = pair_stats(a, *b);
        const PairStats want = testref::reference_pair_stats(a, *b);
        EXPECT_EQ(got.mse, want.mse) << what;
        EXPECT_EQ(got.ssim, want.ssim) << what;
        EXPECT_EQ(got.psnr, want.psnr) << what;
      }
    }
  }
}

TEST(PairStatsParity, OddShapesMatchDefinitionExactly) {
  check_pair_stats_odd_shapes();
}

// The same shapes on the AVX-512 table, whose walk runs blocks of eight
// pixels: every width mod 8 and strips of eight blocks.
TEST(PairStatsParity, OddShapesMatchDefinitionOnAvx512) {
  const testref::ForcedIsa forced(simd::Isa::Avx512);
  if (!forced.active()) GTEST_SKIP() << "no AVX-512 table on this host";
  check_pair_stats_odd_shapes();
}

// The CSP walk over the spectrum stage against the chain it replaced
// (testref::csp_chain on the rendered spectrum), level and count bit for
// bit: odd and even sides, the CNN input, the scan corpus's Bluestein sides
// (333x301 RGB) and 449², 1-px strips, constant and all-zero images, and
// periodic grids that leave several blobs, each at a small disc, the
// detector's default and a circle past the corners, with the detector's
// area floor and with none. Where the old chain found the circle empty,
// the walk must throw the same error.
TEST(CspWalkParity, MatchesRenderedChainExactly) {
  const auto grid = [](int w, int h, int period, int c) {
    Image img(w, h, c, 128.0f);
    for (int ch = 0; ch < c; ++ch) {
      for (int y = 0; y < h; y += period) {
        for (int x = 0; x < w; x += period) img.at(x, y, ch) = 255.0f;
      }
    }
    return img;
  };
  struct Case {
    std::string name;
    Image img;
    bool several_blobs;  // some radius leaves >= 2 blobs at area 1
  };
  const Case cases[] = {
      {"31x17", random_image(31, 17, 1, 61), false},
      {"32x32", random_image(32, 32, 1, 62), false},
      {"17x32x3", random_image(17, 32, 3, 63), false},
      {"33x33", random_image(33, 33, 1, 64), false},
      {"224x224", random_image(224, 224, 1, 65), false},
      {"333x301x3", random_image(333, 301, 3, 66), false},
      {"449x449", random_image(449, 449, 1, 67), false},
      {"1x1", random_image(1, 1, 1, 68), false},
      {"1x2", random_image(1, 2, 1, 69), false},
      {"2x1", random_image(2, 1, 1, 70), false},
      {"3x1", random_image(3, 1, 1, 71), false},
      {"1x17", random_image(1, 17, 1, 72), false},
      {"17x1x3", random_image(17, 1, 3, 73), false},
      {"constant", Image(40, 30, 3, 77.0f), false},
      {"zero", Image(30, 40, 1, 0.0f), false},
      {"grid64p4", grid(64, 64, 4, 1), true},
      {"grid96x80p8x3", grid(96, 80, 8, 3), true},
      {"grid101x99p5", grid(101, 99, 5, 1), true},
  };
  for (const Case& c : cases) {
    const HalfSpectrum stage = half_log_spectrum(c.img);
    const Image rendered = centered_log_spectrum(c.img);
    const int floor = std::max<int>(
        6, static_cast<int>(static_cast<long long>(c.img.width()) *
                            c.img.height() / 4500));
    int most_blobs = 0;
    for (const double fraction : {0.1, 0.95, 1.5}) {
      for (const int min_area : {1, floor}) {
        const std::string what = c.name + " r" + std::to_string(fraction) +
                                 " area" + std::to_string(min_area);
        std::optional<testref::CspChain> want;
        std::string want_error;
        try {
          want = testref::csp_chain(rendered, fraction, 2.5, min_area);
        } catch (const std::invalid_argument& e) {
          want_error = e.what();
        }
        if (!want) {
          ASSERT_NE(want_error.find("low-pass mask left no pixels"),
                    std::string::npos)
              << what;
          try {
            (void)core::csp_walk(stage, fraction, 2.5, min_area);
            ADD_FAILURE() << what << ": the walk did not throw";
          } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "low-pass mask left no pixels"),
                      std::string::npos)
                << what;
          }
          continue;
        }
        const core::CspCount got =
            core::csp_walk(stage, fraction, 2.5, min_area);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.level),
                  std::bit_cast<std::uint64_t>(want->level))
            << what << ": " << got.level << " vs " << want->level;
        EXPECT_EQ(got.blobs, want->blobs) << what;
        most_blobs = std::max(most_blobs, want->blobs);
      }
    }
    if (c.several_blobs) {
      EXPECT_GE(most_blobs, 2) << c.name;
    }
  }
}

// Regression for extreme downscales: border clamping collapses many taps
// onto the same source index; after build-time coalescing each row must
// list strictly increasing indices and still partition unity.
TEST(KernelTableCoalescing, ExtremeDownscaleRowsPartitionUnity) {
  const std::pair<int, int> geometries[] = {{1024, 2}, {7, 3}, {1, 1}};
  for (const auto& [in, out] : geometries) {
    for (const ScaleAlgo algo :
         {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
          ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
      const KernelTable table = make_kernel_table(in, out, algo);
      ASSERT_EQ(table.out_size, out);
      for (int o = 0; o < out; ++o) {
        const auto row = table.row(o);
        ASSERT_FALSE(row.empty()) << to_string(algo);
        double sum = 0.0;
        for (std::size_t t = 0; t < row.size(); ++t) {
          ASSERT_GE(row[t].index, 0);
          ASSERT_LT(row[t].index, in);
          if (t > 0) {
            ASSERT_GT(row[t].index, row[t - 1].index)
                << to_string(algo) << " " << in << "->" << out << " row " << o
                << ": duplicate source index survived coalescing";
          }
          sum += row[t].weight;
        }
        EXPECT_NEAR(sum, 1.0, 1e-4)
            << to_string(algo) << " " << in << "->" << out << " row " << o;
      }
    }
  }
}

TEST(KernelTableCoalescing, ExtremeDownscalePreservesConstantImages) {
  Image img(1024, 4, 1);
  for (float& v : img.plane(0)) v = 200.0f;
  for (const ScaleAlgo algo :
       {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
        ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
    const Image out = resize(img, 2, 2, algo);
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 2; ++x) {
        EXPECT_NEAR(out.at(x, y, 0), 200.0f, 1e-3f) << to_string(algo);
      }
    }
  }
}

TEST(KernelCache, HitsMissesAndSharing) {
  clear_kernel_cache();
  KernelCacheStats stats = kernel_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);

  const auto a = get_kernel_table(100, 50, ScaleAlgo::Bicubic);
  const auto b = get_kernel_table(100, 50, ScaleAlgo::Bicubic);
  EXPECT_EQ(a.get(), b.get()) << "same key must share one table";
  const auto c = get_kernel_table(100, 50, ScaleAlgo::Bilinear);
  EXPECT_NE(a.get(), c.get());

  stats = kernel_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(KernelCache, EvictionBoundsEntriesAndKeepsTablesAlive) {
  clear_kernel_cache();
  const std::size_t capacity = kernel_cache_stats().capacity;
  ASSERT_GT(capacity, 0u);
  // Hold a shared_ptr across more distinct keys than the cache can keep:
  // eviction must bound `entries` without invalidating in-flight tables.
  const auto pinned = get_kernel_table(333, 111, ScaleAlgo::Bicubic);
  for (std::size_t i = 0; i < capacity + 16; ++i) {
    get_kernel_table(static_cast<int>(64 + i), 32, ScaleAlgo::Bilinear);
  }
  const KernelCacheStats stats = kernel_cache_stats();
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_EQ(pinned->in_size, 333);
  EXPECT_EQ(pinned->out_size, 111);
  EXPECT_EQ(pinned->row(0).size(),
            static_cast<std::size_t>(pinned->row_taps(0)));
  clear_kernel_cache();
}

}  // namespace
}  // namespace decam
