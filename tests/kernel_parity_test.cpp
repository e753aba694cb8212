// Golden parity tests: the optimized kernels in src/imaging/ (van Herk
// rank filters, running-sum box blur, scanline convolution, row-major
// flattened-table resize) and the fused pair-stats walk of src/metrics/
// against the retained naive reference implementations in
// reference_kernels.h.
//
// Tolerance policy (see imaging/filter.h): rank filters select actual input
// samples and must match bit-for-bit; gaussian_blur and pair_stats keep the
// exact per-accumulator arithmetic sequence and must also match
// bit-for-bit; box_blur and resize may re-associate double additions, so
// they get a max-abs-diff budget of 1e-6 of full scale (inputs live in
// [0, 255]).
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/rng.h"
#include "imaging/filter.h"
#include "imaging/kernels.h"
#include "imaging/scale.h"
#include "metrics/fused.h"
#include "reference_kernels.h"

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
// and degenerate 1xN / Nx1 strips.
const Shape kRankShapes[] = {{31, 17, 1}, {16, 16, 3}, {1, 13, 1},
                             {13, 1, 3},  {5, 5, 1}};
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

// The histogram median paths (imaging/filter.h eligibility contract).
// Quantised values land on the 8-bit grid (Perreault–Hébert path), i/256
// values on the 16-bit grid (serpentine Huang path); both must reproduce
// the sorted-window reference bit for bit, k = 15 included (larger than
// every test shape, so the whole window is border replication).
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

Image random_grid16_image(int w, int h, int c, std::uint64_t seed) {
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
        random_grid16_image(s.w, s.h, s.c, 5000u + s.w * 7u + s.h);
    ASSERT_EQ(classify_median_path(img), MedianPath::Grid16);
    for (const int k : kGridKs) {
      expect_identical(rank_filter(img, k, RankOp::Median),
                       testref::rank_filter(img, k, RankOp::Median),
                       "grid16 " + std::to_string(s.w) + "x" +
                           std::to_string(s.h) + "x" + std::to_string(s.c) +
                           " k=" + std::to_string(k));
    }
  }
}

TEST(RankFilterParity, OffGridMedianFallsBackAndMatches) {
  // One off-grid pixel disqualifies the whole image; the exact sorted-window
  // fallback must still reproduce the reference on the unchanged pixels.
  Image img = random_grid8_image(16, 16, 3, 6001);
  img.plane(1)[37] = 0.3f;
  ASSERT_EQ(classify_median_path(img), MedianPath::Exact);
  for (const int k : {2, 3, 9}) {
    expect_identical(rank_filter(img, k, RankOp::Median),
                     testref::rank_filter(img, k, RankOp::Median),
                     "off-grid k=" + std::to_string(k));
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
  EXPECT_EQ(classify_median_path(one_pixel(0.5f)), MedianPath::Grid16);
  EXPECT_EQ(classify_median_path(one_pixel(255.5f)), MedianPath::Grid16);
  EXPECT_EQ(classify_median_path(one_pixel(65535.0f / 256.0f)),
            MedianPath::Grid16);  // top of the 16-bit grid
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

  // Multi-channel: the coarsest plane decides for the whole image.
  Image mixed(4, 4, 2);
  for (float& p : mixed.plane(0)) p = 12.0f;   // grid8 on its own
  for (float& p : mixed.plane(1)) p = 12.5f;   // grid16 only
  EXPECT_EQ(classify_median_path(mixed), MedianPath::Grid16);
  mixed.plane(1)[0] = 0.1f;
  EXPECT_EQ(classify_median_path(mixed), MedianPath::Exact);
}

TEST(MedianClassifier, OneSampleDecidesAtEveryBlockEdge) {
  // The classifier exits early only between kMedianClassifyBlock-sample
  // blocks, so a single disqualifying sample must count wherever it sits:
  // first and last sample of the image, and both sides of a block edge.
  Image img(40, 40, 2);  // 3200 samples: three full blocks and a partial one
  for (float& v : img.plane(0)) v = 9.0f;
  for (float& v : img.plane(1)) v = 200.0f;
  const std::size_t n = img.size();
  ASSERT_GT(n, 3 * kMedianClassifyBlock);
  ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
  const std::size_t b = kMedianClassifyBlock;
  for (const std::size_t i : {std::size_t{0}, b - 1, b, 2 * b - 1, 2 * b,
                              3 * b - 1, 3 * b, n - 1}) {
    for (const auto& [value, want] :
         {std::pair{0.3f, MedianPath::Exact},
          std::pair{0.5f, MedianPath::Grid16}}) {
      Image probe = img;
      probe.data()[i] = value;
      EXPECT_EQ(classify_median_path(probe), want)
          << "sample " << value << " at index " << i;
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

TEST(BoxBlurParity, RunningSumWithinLastUlpBudget) {
  const Shape shapes[] = {{31, 17, 3}, {1, 13, 1}, {13, 1, 1}, {4, 4, 1}};
  for (const Shape& s : shapes) {
    const Image img = random_image(s.w, s.h, s.c, 2000u + s.w);
    for (const int k : {1, 3, 5, 9, 25}) {
      expect_close(box_blur(img, k), testref::box_blur(img, k), kFullScaleTol,
                   std::to_string(s.w) + "x" + std::to_string(s.h) +
                       " box k=" + std::to_string(k));
    }
  }
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

// The fused walk against the definition, bit for bit, on shapes the
// battery goldens never reach: a partial last 4-pixel block (every width
// mod 4), images narrower or shorter than the 11-tap window, and 1-pixel
// strips where every tap is edge-clamped.
TEST(PairStatsParity, OddShapesMatchDefinitionExactly) {
  const std::pair<int, int> shapes[] = {{1, 1},  {1, 17},  {17, 1},
                                        {3, 5},  {4, 4},   {5, 13},
                                        {11, 11}, {13, 12}, {37, 29}};
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
