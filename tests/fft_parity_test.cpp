// Parity harness for the planned spectral engine (DESIGN.md §10): every
// transform path — Stockham radix-4/2/3/5/7 plans, Bluestein convolution,
// the real-input 2-D fast path, the in-place fftshift — is checked against a
// naive O(n^2) reference DFT and the straightforward copy implementations
// they replaced. The acceptance budget is 1e-9 of the transform's peak
// magnitude: FFT restructuring legally reorders floating-point sums, so
// bit-identity is replaced by this explicit tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "data/rng.h"
#include "reference_kernels.h"
#include "signal/fft.h"
#include "signal/spectrum.h"

namespace decam {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  data::Rng rng(seed);
  std::vector<Complex> signal(n);
  for (auto& v : signal) {
    v = Complex(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0));
  }
  return signal;
}

// The in-place transform, applied to a copy.
std::vector<Complex> transformed(std::vector<Complex> data,
                                 bool inverse = false) {
  fft(data, inverse);
  return data;
}

// A w x h single-channel image of uniform samples in [0, 255), and its
// plane as complex values.
Image random_image(int w, int h, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, 1);
  for (float& v : img.plane(0)) {
    v = static_cast<float>(rng.next_range(0.0, 255.0));
  }
  return img;
}

std::vector<Complex> real_plane(const Image& img) {
  const auto plane = img.plane(0);
  return std::vector<Complex>(plane.begin(), plane.end());
}

// Naive O(n^2) DFT, the reference every fast path must reproduce.
std::vector<Complex> naive_dft(const std::vector<Complex>& in, bool inverse) {
  const std::size_t n = in.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> out(n, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>((j * k) % n) /
                           static_cast<double>(n);
      acc += in[j] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

// Applies the 1-D `transform` to every row of a w x h grid, then to every
// column.
template <typename Transform>
std::vector<Complex> separable(std::vector<Complex> grid, int w, int h,
                               Transform transform) {
  std::vector<Complex> line;
  for (int y = 0; y < h; ++y) {
    line.assign(grid.begin() + static_cast<std::size_t>(y) * w,
                grid.begin() + static_cast<std::size_t>(y + 1) * w);
    transform(line);
    std::copy(line.begin(), line.end(),
              grid.begin() + static_cast<std::size_t>(y) * w);
  }
  for (int x = 0; x < w; ++x) {
    line.resize(static_cast<std::size_t>(h));
    for (int y = 0; y < h; ++y) {
      line[static_cast<std::size_t>(y)] =
          grid[static_cast<std::size_t>(y) * w + x];
    }
    transform(line);
    for (int y = 0; y < h; ++y) {
      grid[static_cast<std::size_t>(y) * w + x] =
          line[static_cast<std::size_t>(y)];
    }
  }
  return grid;
}

// Separable naive 2-D DFT (rows then columns).
std::vector<Complex> naive_dft2d(const std::vector<Complex>& in, int w,
                                 int h) {
  return separable(in, w, h, [](std::vector<Complex>& line) {
    line = naive_dft(line, false);
  });
}

double peak_magnitude(const std::vector<Complex>& v) {
  double peak = 0.0;
  for (const Complex& x : v) peak = std::max(peak, std::abs(x));
  return peak;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// The pre-engine fftshift: full-size temporary, index remap.
std::vector<Complex> reference_fftshift(const std::vector<Complex>& data,
                                        int width, int height) {
  std::vector<Complex> out(data.size());
  const int hx = width / 2;
  const int hy = height / 2;
  for (int y = 0; y < height; ++y) {
    const int sy = (y + hy) % height;
    for (int x = 0; x < width; ++x) {
      const int sx = (x + hx) % width;
      out[static_cast<std::size_t>(sy) * width + sx] =
          data[static_cast<std::size_t>(y) * width + x];
    }
  }
  return out;
}

// Power-of-two, odd, prime, and mixed-composite lengths — including the
// image side lengths the detectors actually hit (224, 227, 300, 448, 450,
// 480, 640). Each Stockham radix (4, 2, 3, 5, 7) appears alone and in
// mixes; 11..449 have a prime factor above 7 and take Bluestein, padded to
// a 7-smooth convolution length (333 -> 672, 301 -> 625, 449 -> 900).
class FftNaiveParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftNaiveParity, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, n * 31 + 7);
  const auto expected = naive_dft(signal, false);
  auto actual = signal;
  fft(actual, false);
  const double budget = 1e-9 * std::max(peak_magnitude(expected), 1.0);
  EXPECT_LE(max_abs_diff(actual, expected), budget) << "n=" << n;
}

TEST_P(FftNaiveParity, InverseMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, n * 17 + 3);
  const auto expected = naive_dft(signal, true);
  auto actual = signal;
  fft(actual, true);
  const double budget = 1e-9 * std::max(peak_magnitude(expected), 1.0);
  EXPECT_LE(max_abs_diff(actual, expected), budget) << "n=" << n;
}

TEST_P(FftNaiveParity, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, n * 5 + 11);
  const auto back = transformed(transformed(signal), true);
  const double budget = 1e-9 * std::max(peak_magnitude(signal), 1.0);
  EXPECT_LE(max_abs_diff(back, signal), budget) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftNaiveParity,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 27,
                                           64, 97, 224, 227, 256, 300, 450,
                                           6, 10, 14, 15, 20, 21, 25, 35, 49,
                                           60, 98, 105, 343, 448, 480, 640,
                                           1000, 11, 13, 37, 299, 301, 333,
                                           449),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// The real-input 2-D transform against the separable naive DFT of the same
// plane.
void expect_image_transform_matches_naive(int w, int h, std::uint64_t seed) {
  const Image img = random_image(w, h, seed);
  const auto expected = naive_dft2d(real_plane(img), w, h);
  const double budget = 1e-9 * std::max(peak_magnitude(expected), 1.0);
  EXPECT_LE(max_abs_diff(fft2d(img), expected), budget) << w << "x" << h;
}

// 2-D shapes: squares, rectangles, degenerate 1xN / Nx1 strips, odd/even
// mixes — the image transform forward, and its full plane (the mirrored
// right half included) back through the 1-D inverse on rows and columns.
class Fft2dNaiveParity
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Fft2dNaiveParity, ForwardMatchesSeparableNaive) {
  const auto [w, h] = GetParam();
  expect_image_transform_matches_naive(
      w, h, static_cast<std::uint64_t>(w) * 1000 + h);
}

TEST_P(Fft2dNaiveParity, RoundTripRecoversGrid) {
  const auto [w, h] = GetParam();
  const Image img =
      random_image(w, h, static_cast<std::uint64_t>(h) * 911 + w);
  const auto original = real_plane(img);
  const auto back = separable(fft2d(img), w, h, [](std::vector<Complex>& line) {
    fft(line, true);
  });
  const double budget = 1e-9 * std::max(peak_magnitude(original), 1.0);
  EXPECT_LE(max_abs_diff(back, original), budget) << w << "x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2dNaiveParity,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 16}, std::pair{16, 1},
                      std::pair{1, 7}, std::pair{13, 1}, std::pair{5, 4},
                      std::pair{12, 7}, std::pair{16, 12}, std::pair{32, 32},
                      std::pair{30, 14}, std::pair{27, 27}, std::pair{21, 35},
                      std::pair{48, 45}, std::pair{14, 49}),
    [](const auto& info) {
      return "w" + std::to_string(info.param.first) + "h" +
             std::to_string(info.param.second);
    });

// The real-input fast path (packed row pairs + Hermitian column mirror)
// must agree with the naive transform of the same plane.
class RealFft2dParity : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(RealFft2dParity, ImageTransformMatchesNaive) {
  const auto [w, h] = GetParam();
  expect_image_transform_matches_naive(
      w, h, static_cast<std::uint64_t>(w) * 77 + h);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RealFft2dParity,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 9}, std::pair{8, 1},
                      std::pair{2, 2}, std::pair{5, 3}, std::pair{8, 9},
                      std::pair{13, 7}, std::pair{16, 16}, std::pair{31, 12},
                      std::pair{45, 45}, std::pair{64, 48}, std::pair{21, 35},
                      std::pair{48, 45}, std::pair{14, 49}),
    [](const auto& info) {
      return "w" + std::to_string(info.param.first) + "h" +
             std::to_string(info.param.second);
    });

TEST(RealFft2dParity, ColorInputMatchesExplicitLumaTransform) {
  data::Rng rng(99);
  Image rgb(21, 14, 3);
  for (int c = 0; c < 3; ++c) {
    for (float& v : rgb.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  const auto direct = fft2d(rgb);
  const auto via_gray = fft2d(testref::to_gray(rgb));
  const double budget = 1e-9 * std::max(peak_magnitude(via_gray), 1.0);
  EXPECT_LE(max_abs_diff(direct, via_gray), budget);
}

TEST(RealFft2dParity, ScratchOverloadReusesBufferAcrossGeometries) {
  std::vector<Complex> scratch;
  data::Rng rng(7);
  for (const auto& [w, h] : {std::pair{16, 12}, std::pair{9, 5},
                             std::pair{24, 24}}) {
    Image img(w, h, 1);
    for (float& v : img.plane(0)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
    fft2d(img, scratch);
    const auto fresh = fft2d(img);
    ASSERT_EQ(scratch.size(), fresh.size());
    EXPECT_LE(max_abs_diff(scratch, fresh), 0.0) << w << "x" << h;
  }
}

// In-place fftshift (quadrant swap for even sizes, one-row-scratch cycle
// rotation for odd heights) against the old full-copy implementation.
class FftShiftParity : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(FftShiftParity, MatchesReferenceCopyImplementation) {
  const auto [w, h] = GetParam();
  auto grid = random_signal(static_cast<std::size_t>(w) * h,
                            static_cast<std::uint64_t>(w) * 13 + h);
  const auto expected = reference_fftshift(grid, w, h);
  fftshift(grid, w, h);
  EXPECT_LE(max_abs_diff(grid, expected), 0.0) << w << "x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    EvenOddMix, FftShiftParity,
    ::testing::Values(std::pair{4, 4}, std::pair{6, 4}, std::pair{5, 4},
                      std::pair{4, 5}, std::pair{5, 3}, std::pair{7, 7},
                      std::pair{1, 6}, std::pair{1, 7}, std::pair{6, 1},
                      std::pair{7, 1}, std::pair{1, 1}, std::pair{32, 9},
                      std::pair{9, 32}),
    [](const auto& info) {
      return "w" + std::to_string(info.param.first) + "h" +
             std::to_string(info.param.second);
    });

TEST(FftShiftParity, EvenSizesStaySelfInverse) {
  auto grid = random_signal(16 * 12, 5);
  const auto original = grid;
  fftshift(grid, 16, 12);
  fftshift(grid, 16, 12);
  EXPECT_LE(max_abs_diff(grid, original), 0.0);
}

// The spectrum stage read at centered positions (the shift is index
// arithmetic, the log polynomial) against the definitional formula computed
// from the same transform.
TEST(SpectrumParity, FusedLogMagnitudesMatchDefinition) {
  data::Rng rng(21);
  for (const auto& [w, h] : {std::pair{32, 32}, std::pair{15, 22}}) {
    Image img(w, h, 1);
    for (float& v : img.plane(0)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
    std::vector<Complex> freq = fft2d(img);
    fftshift(freq, w, h);
    const HalfSpectrum stage = half_log_spectrum(img);
    ASSERT_EQ(stage.logmag.size(),
              static_cast<std::size_t>(h) * (w / 2 + 1));
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        EXPECT_NEAR(stage.centered(x, y),
                    std::log1p(std::abs(freq[static_cast<std::size_t>(y) * w +
                                             x])),
                    1e-9)
            << w << "x" << h << " at (" << x << ", " << y << ")";
      }
    }
  }
}

// The stage logs columns 0..w/2 only, and its centered accessor reads every
// other bin from its Hermitian partner. That must equal the full-plane
// definition bit for bit: fft2d's mirrored bins are conj(partner), whose
// magnitude is the partner's exactly. The stage's range must be the full
// plane's. Odd and even sides of both axes, 1-px strips, luma.
TEST(SpectrumParity, HalfPlaneMirrorIsBitExact) {
  data::Rng rng(33);
  for (const int channels : {1, 3}) {
    for (const int w : {1, 2, 3, 5, 8, 9, 17, 31, 64}) {
      for (const int h : {1, 2, 3, 7, 12, 13, 65}) {
        Image img(w, h, channels);
        for (int c = 0; c < channels; ++c) {
          for (float& v : img.plane(c)) {
            v = static_cast<float>(rng.next_range(0.0, 255.0));
          }
        }
        std::vector<Complex> freq = fft2d(img);
        fftshift(freq, w, h);
        const HalfSpectrum stage = half_log_spectrum(img);
        double lo = testref::log1p_magnitude(freq[0]);
        double hi = lo;
        for (int y = 0; y < h; ++y) {
          for (int x = 0; x < w; ++x) {
            const double want = testref::log1p_magnitude(
                freq[static_cast<std::size_t>(y) * w + x]);
            lo = std::min(lo, want);
            hi = std::max(hi, want);
            // Fatal: one report for the first differing bin, not thousands.
            ASSERT_EQ(stage.centered(x, y), want)
                << w << "x" << h << "x" << channels << " at (" << x << ", "
                << y << ")";
          }
        }
        ASSERT_EQ(stage.lo, lo) << w << "x" << h << "x" << channels;
        ASSERT_EQ(stage.hi, hi) << w << "x" << h << "x" << channels;
      }
    }
  }
}

// Plan-cache behaviour: a sweep far past the LRU capacity must stay
// correct (the old Bluestein cache dropped *every* plan at entry 65 —
// including the row/column plans of the transform in flight).
TEST(FftPlanCache, SizeSweepPastCapacityStaysCorrectAndBounded) {
  clear_fft_plan_caches();
  // 150 distinct odd (Bluestein) sizes — well past the 64-entry capacity.
  for (std::size_t n = 3; n < 3 + 2 * 150; n += 2) {
    const auto signal = random_signal(n, n);
    const auto back = transformed(transformed(signal), true);
    const double budget = 1e-9 * std::max(peak_magnitude(signal), 1.0);
    ASSERT_LE(max_abs_diff(back, signal), budget) << "n=" << n;
  }
  const FftPlanCacheStats stats = bluestein_plan_cache_stats();
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_GT(stats.misses, stats.capacity);  // the sweep really did churn
}

TEST(FftPlanCache, HotSizeSurvivesChurn) {
  clear_fft_plan_caches();
  // Establish a hot Bluestein size, then churn many cold sizes while
  // touching the hot one — LRU must keep it resident (the old clear-all
  // eviction forgot it every 64 distinct sizes). The hot size is prime: a
  // 7-smooth one would never reach the Bluestein cache.
  const std::size_t hot = 449;
  (void)transformed(random_signal(hot, 1));
  for (std::size_t i = 0; i < 200; ++i) {
    (void)transformed(random_signal(101 + 2 * i, i + 2));
    (void)transformed(random_signal(hot, i + 3));
  }
  const FftPlanCacheStats stats = bluestein_plan_cache_stats();
  // 201 hot hits + 200 cold misses: with clear-all eviction the hot size
  // would miss every ~32 rounds as well.
  EXPECT_GE(stats.hits, 200u);
  EXPECT_LE(stats.entries, stats.capacity);
}

// Every 7-smooth length runs a Stockham plan from the smooth cache; only a
// prime factor above 7 reaches Bluestein, whose convolution plans come from
// the smooth cache too.
TEST(FftPlanCache, SmoothLengthsNeverTakeBluestein) {
  clear_fft_plan_caches();
  const std::size_t smooth[] = {224, 448, 450, 480, 512, 640};
  for (const std::size_t n : smooth) (void)transformed(random_signal(n, n));
  EXPECT_EQ(fft_plan_cache_stats().misses, std::size(smooth));
  const FftPlanCacheStats untouched = bluestein_plan_cache_stats();
  EXPECT_EQ(untouched.hits + untouched.misses, 0u);

  // 449 is prime: one Bluestein miss, plus its forward and inverse
  // 900-point (2^2 3^2 5^2) convolution plans in the smooth cache.
  (void)transformed(random_signal(449, 449));
  EXPECT_EQ(bluestein_plan_cache_stats().misses, 1u);
  EXPECT_EQ(fft_plan_cache_stats().misses, std::size(smooth) + 2);
  EXPECT_EQ(fft_plan_cache_stats().hits, 0u);
  (void)transformed(random_signal(900, 900));
  EXPECT_EQ(fft_plan_cache_stats().hits, 1u);
}

}  // namespace
}  // namespace decam
