// Parity harness for the planned spectral engine (DESIGN.md §10): every
// transform path — Stockham radix-4/2/3/5/7 plans, Bluestein convolution,
// the real-input 2-D transform and fftshift of the test reference — is
// checked against a naive O(n^2) reference DFT and the straightforward copy
// implementations they replaced. The acceptance budget is 1e-9 of the
// transform's peak magnitude: FFT restructuring legally reorders
// floating-point sums, so bit-identity is replaced by this explicit
// tolerance. The four-line lanes, in contrast, are held bit for bit: each
// lane to the 1-D transform of its line, and the spectrum stage to the
// interleaved reference and to pinned hashes of its bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "data/rng.h"
#include "common/simd.h"
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
  EXPECT_LE(max_abs_diff(testref::fft2d(img), expected), budget)
      << w << "x" << h;
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
  const auto back = separable(testref::fft2d(img), w, h,
                              [](std::vector<Complex>& line) {
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
  const auto direct = testref::fft2d(rgb);
  const auto via_gray = testref::fft2d(testref::to_gray(rgb));
  const double budget = 1e-9 * std::max(peak_magnitude(via_gray), 1.0);
  EXPECT_LE(max_abs_diff(direct, via_gray), budget);
}

// The spectrum stage reuses one per-thread workspace, sized exactly for
// each geometry: a run after larger and smaller geometries must equal the
// interleaved reference of its own.
TEST(RealFft2dParity, ScratchOverloadReusesBufferAcrossGeometries) {
  data::Rng rng(7);
  for (const auto& [w, h] : {std::pair{16, 12}, std::pair{9, 5},
                             std::pair{24, 24}, std::pair{9, 5}}) {
    Image img(w, h, 1);
    for (float& v : img.plane(0)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
    const HalfSpectrum stage = half_log_spectrum(img);
    const testref::HalfLogSpectrum want = testref::half_log_spectrum(img);
    ASSERT_EQ(stage.logmag, want.logmag) << w << "x" << h;
    EXPECT_EQ(stage.lo, want.lo) << w << "x" << h;
    EXPECT_EQ(stage.hi, want.hi) << w << "x" << h;
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
  testref::fftshift(grid, w, h);
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
  testref::fftshift(grid, 16, 12);
  testref::fftshift(grid, 16, 12);
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
    std::vector<Complex> freq = testref::fft2d(img);
    testref::fftshift(freq, w, h);
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
        std::vector<Complex> freq = testref::fft2d(img);
        testref::fftshift(freq, w, h);
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

// The bits of a double, so a comparison sees -0 and NaN payloads.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << what << " at " << i;
  }
}

// The active table's four-line transform against the 1-D transform of each
// line, bit for bit: every lane holds its own random line, so a lane swap
// or a lane that reads its neighbour shows. Buffers are sized exactly, so
// an AddressSanitizer build sees any read past the last element. ctest
// reruns this suite on the scalar table (simd_dispatch_fft_parity).
class FftLaneParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLaneParity, EachLaneEqualsTheLineTransform) {
  const std::size_t n = GetParam();
  constexpr int kLanes = simd::kFftLanes;
  for (const bool inverse : {false, true}) {
    std::vector<std::vector<Complex>> lines;
    for (int l = 0; l < kLanes; ++l) {
      lines.push_back(random_signal(n, n * 131 + l * 17 + inverse));
    }
    std::vector<double> re(n * kLanes), im(n * kLanes);
    for (std::size_t j = 0; j < n; ++j) {
      for (int l = 0; l < kLanes; ++l) {
        re[j * kLanes + l] = lines[l][j].real();
        im[j * kLanes + l] = lines[l][j].imag();
      }
    }
    const PlannedFft plan(n, inverse);
    std::vector<double> work(kLanes * simd::fft_work_doubles(plan.lanes()));
    simd::ops().fft_lanes(plan.lanes(), re.data(), im.data(), work.data());
    for (int l = 0; l < kLanes; ++l) {
      std::vector<Complex> want = lines[l];
      fft(want, inverse);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(bits(re[j * kLanes + l]), bits(want[j].real()))
            << "n=" << n << " inverse=" << inverse << " lane " << l
            << " bin " << j;
        ASSERT_EQ(bits(im[j * kLanes + l]), bits(want[j].imag()))
            << "n=" << n << " inverse=" << inverse << " lane " << l
            << " bin " << j;
      }
    }
  }
}

// Each radix alone (2, 3, 4, 5, 7 and their squares), mixed radices at the
// detector's geometries, and Bluestein lengths (11 -> 21, 37 -> 75,
// 301 -> 625, 333 -> 672, 449 -> 900).
INSTANTIATE_TEST_SUITE_P(Lengths, FftLaneParity,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 25,
                                           49, 224, 448, 480, 640, 672, 900,
                                           11, 37, 301, 333, 449),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// The spectrum stage on its lanes against the interleaved transform it
// replaced (testref::half_log_spectrum): the values, lo and hi, bit for
// bit. Every w and h in 1..17 covers every h mod 8 (leftover row pairs
// beside zero lines, the odd last row) and every (w/2 + 1) mod 4 (a
// partial last column group); 333x301 and 449x449 take Bluestein both ways.
void expect_stage_matches_reference(int w, int h, int channels,
                                    std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, channels);
  for (int c = 0; c < channels; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  const HalfSpectrum stage = half_log_spectrum(img);
  const testref::HalfLogSpectrum want = testref::half_log_spectrum(img);
  const std::string what = std::to_string(w) + "x" + std::to_string(h) +
                           "x" + std::to_string(channels);
  expect_same_bits(stage.logmag, want.logmag, what);
  EXPECT_EQ(bits(stage.lo), bits(want.lo)) << what;
  EXPECT_EQ(bits(stage.hi), bits(want.hi)) << what;
}

TEST(SpectrumParity, LanesMatchInterleavedReferenceOnSmallShapes) {
  for (const int channels : {1, 3}) {
    for (int w = 1; w <= 17; ++w) {
      for (int h = 1; h <= 17; ++h) {
        expect_stage_matches_reference(w, h, channels,
                                       static_cast<std::uint64_t>(w * 100 + h));
      }
    }
  }
}

TEST(SpectrumParity, LanesMatchInterleavedReferenceOnBluesteinShapes) {
  expect_stage_matches_reference(333, 301, 3, 333);
  expect_stage_matches_reference(449, 449, 1, 449);
}

// Leftover lines run beside zero lines: after a spectrum, the workspace's
// packed lines hold the last row block's transform, and every lane past
// the used ones must be the (all-zero) transform of zeros — not whatever
// the previous, fuller image left there, nor the NaN an AddressSanitizer
// build leaves in an unset lane. The lanes never mix, so this is the one
// place where a dropped zero line shows.
TEST(SpectrumParity, LeftoverLinesRunBesideZeroLines) {
  constexpr int kLanes = simd::kFftLanes;
  const int w = 12;
  for (const int h : {1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 14}) {
    expect_stage_matches_reference(w, 16, 1, 77);  // all four lanes used
    expect_stage_matches_reference(w, h, 1, 78 + h);
    const int lines = (h + 1) / 2;
    const int used = lines - (lines - 1) / kLanes * kLanes;
    const SpectrumWorkspace& ws = thread_spectrum_workspace();
    ASSERT_EQ(ws.lines.size(), 2u * w * kLanes);
    for (int l = used; l < kLanes; ++l) {
      for (std::size_t j = 0; j < 2u * w; ++j) {
        ASSERT_EQ(ws.lines[j * kLanes + l], 0.0)
            << "h=" << h << " lane " << l << " element " << j;
      }
    }
  }
}

// FNV-1a over the bits of each double in order.
std::uint64_t fnv1a(std::uint64_t hash, double v) {
  const std::uint64_t b = bits(v);
  for (int i = 0; i < 8; ++i) {
    hash ^= (b >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// The bits the spectrum stage and the 1-D transform produced before they
// ran on lanes, pinned as hashes: the references above share the one
// butterfly template with the stage, so a change to its arithmetic (a
// reordered radix-5 sum, say) moves both sides of those comparisons and
// only a pinned value sees it. Shapes cover radix 5 and 7 squared, mixed
// radices, Bluestein on both axes (301 -> 625 = 5^4) and RGB luma.
TEST(SpectrumParity, StageBitsArePinned) {
  struct Case {
    int w, h, channels;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {25, 49, 1, 0xcb1a4d8e8549caacULL}, {60, 45, 3, 0x2587f94c6f999ccdULL},
      {37, 11, 1, 0x2393da934d7d6a40ULL}, {301, 20, 3, 0x8ddb1e8409cff22cULL},
      {224, 14, 1, 0x53302c75fb3c9977ULL}, {17, 9, 3, 0xe97c4743bc240476ULL},
  };
  for (const Case& c : cases) {
    data::Rng rng(1000 + static_cast<std::uint64_t>(c.w) * 7 + c.h);
    Image img(c.w, c.h, c.channels);
    for (int ch = 0; ch < c.channels; ++ch) {
      for (float& v : img.plane(ch)) {
        v = static_cast<float>(rng.next_range(0.0, 255.0));
      }
    }
    const HalfSpectrum stage = half_log_spectrum(img);
    std::uint64_t hash = kFnvBasis;
    for (const double v : stage.logmag) hash = fnv1a(hash, v);
    hash = fnv1a(fnv1a(hash, stage.lo), stage.hi);
    EXPECT_EQ(hash, c.hash) << c.w << "x" << c.h << "x" << c.channels;
  }
  const std::pair<std::size_t, std::uint64_t> lines[] = {
      {5, 0x0a05eb861fb09494ULL}, {25, 0x729686f5aad88ee0ULL},
      {125, 0xdba8687a0f3f41ccULL}, {301, 0xef9d3b557e45aaf8ULL}};
  for (const auto& [n, want] : lines) {
    data::Rng rng(n);
    std::vector<Complex> signal(n);
    for (Complex& v : signal) {
      v = Complex(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0));
    }
    fft(signal, false);
    std::uint64_t hash = kFnvBasis;
    for (const Complex& v : signal) {
      hash = fnv1a(fnv1a(hash, v.real()), v.imag());
    }
    EXPECT_EQ(hash, want) << "n=" << n;
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
