// Tests for the FFT substrate: known transforms, inverse round trips for
// power-of-two and Bluestein sizes, Parseval; and the 2-D transform and
// fftshift of the test reference (reference_kernels.h), which the spectrum
// stage is held to bit for bit.
#include "signal/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "data/rng.h"
#include "reference_kernels.h"

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

TEST(Fft, ImpulseTransformsToConstant) {
  std::vector<Complex> signal(8, Complex(0, 0));
  signal[0] = Complex(1, 0);
  const auto freq = transformed(signal);
  for (const Complex& bin : freq) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToImpulse) {
  const std::vector<Complex> signal(16, Complex(2.0, 0));
  const auto freq = transformed(signal);
  EXPECT_NEAR(freq[0].real(), 32.0, 1e-9);
  for (std::size_t k = 1; k < freq.size(); ++k) {
    EXPECT_NEAR(std::abs(freq[k]), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t n = 32;
  constexpr int tone = 5;
  std::vector<Complex> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi * tone *
                         static_cast<double>(i) / static_cast<double>(n);
    signal[i] = Complex(std::cos(phase), std::sin(phase));
  }
  const auto freq = transformed(signal);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = k == tone ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(freq[k]), expected, 1e-8) << "bin " << k;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, n * 13 + 1);
  const auto back = transformed(transformed(signal), true);
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), signal[i].real(), 1e-8) << "n=" << n;
    EXPECT_NEAR(back[i].imag(), signal[i].imag(), 1e-8) << "n=" << n;
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, n * 7 + 3);
  const auto freq = transformed(signal);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : signal) time_energy += std::norm(v);
  for (const auto& v : freq) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-6 * time_energy * static_cast<double>(n));
}

// Mixes powers of two, primes (Bluestein), and highly composite sizes.
INSTANTIATE_TEST_SUITE_P(VariousLengths, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 3, 5, 7, 13,
                                           97, 101, 6, 12, 60, 100, 224, 299),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(Fft, LinearityHolds) {
  const auto a = random_signal(24, 1);
  const auto b = random_signal(24, 2);
  std::vector<Complex> sum(24);
  for (std::size_t i = 0; i < 24; ++i) sum[i] = 3.0 * a[i] + 2.0 * b[i];
  const auto fa = transformed(a);
  const auto fb = transformed(b);
  const auto fsum = transformed(sum);
  for (std::size_t i = 0; i < 24; ++i) {
    const Complex expected = 3.0 * fa[i] + 2.0 * fb[i];
    EXPECT_NEAR(std::abs(fsum[i] - expected), 0.0, 1e-8);
  }
}

TEST(Fft, RejectsEmptySignal) {
  std::vector<Complex> empty;
  EXPECT_THROW(fft(empty, false), std::invalid_argument);
}

TEST(Fft2d, DcBinIsImageSum) {
  Image img(6, 4, 1);
  double sum = 0.0;
  data::Rng rng(5);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 6; ++x) {
      const double v = rng.next_range(0.0, 255.0);
      img.at(x, y, 0) = static_cast<float>(v);
      sum += v;
    }
  }
  const auto freq = testref::fft2d(img);
  EXPECT_NEAR(freq[0].real(), sum, 1e-5);
  EXPECT_NEAR(freq[0].imag(), 0.0, 1e-6);
}

TEST(Fft2d, HorizontalCosineProducesSymmetricPeaks) {
  constexpr int n = 16;
  Image img(n, n, 1);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      img.at(x, y, 0) = static_cast<float>(
          std::cos(2.0 * std::numbers::pi * 3.0 * x / n));
    }
  }
  const auto freq = testref::fft2d(img);
  // Energy at (kx=3, ky=0) and (kx=13, ky=0) only.
  for (int ky = 0; ky < n; ++ky) {
    for (int kx = 0; kx < n; ++kx) {
      const double mag = std::abs(freq[static_cast<std::size_t>(ky) * n + kx]);
      if (ky == 0 && (kx == 3 || kx == n - 3)) {
        // Float-image inputs limit precision to ~1e-5 relative.
        EXPECT_NEAR(mag, n * n / 2.0, 1e-4);
      } else {
        EXPECT_NEAR(mag, 0.0, 1e-4);
      }
    }
  }
}

TEST(FftShift, MovesDcToCentreAndIsSelfInverseForEvenSizes) {
  const int w = 4, h = 4;
  std::vector<Complex> grid(16, Complex(0, 0));
  grid[0] = Complex(1, 0);  // DC at top-left
  auto shifted = grid;
  testref::fftshift(shifted, w, h);
  EXPECT_NEAR(shifted[2 * 4 + 2].real(), 1.0, 1e-12);  // centre (2,2)
  testref::fftshift(shifted, w, h);
  EXPECT_NEAR(shifted[0].real(), 1.0, 1e-12);
}

TEST(FftShift, OddSizesMapDcToCentrePixel) {
  const int w = 5, h = 3;
  std::vector<Complex> grid(15, Complex(0, 0));
  grid[0] = Complex(1, 0);
  testref::fftshift(grid, w, h);
  EXPECT_NEAR(grid[1 * 5 + 2].real(), 1.0, 1e-12);  // (2, 1)
}

}  // namespace
}  // namespace decam
