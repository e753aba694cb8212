// Tests for the centered log-magnitude spectrum — the signal the
// steganalysis detector thresholds.
#include "signal/spectrum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "data/noise.h"
#include "data/rng.h"

namespace decam {
namespace {

TEST(Spectrum, OutputGeometryMatchesInput) {
  const Image img(20, 14, 1, 50.0f);
  const Image spec = centered_log_spectrum(img);
  EXPECT_EQ(spec.width(), 20);
  EXPECT_EQ(spec.height(), 14);
  EXPECT_EQ(spec.channels(), 1);
}

TEST(Spectrum, NormalisedToFullRange) {
  data::Rng rng(1);
  Image img(32, 32, 1);
  for (float& v : img.plane(0)) {
    v = static_cast<float>(rng.next_range(0.0, 255.0));
  }
  const Image spec = centered_log_spectrum(img);
  EXPECT_NEAR(spec.min_value(), 0.0f, 1e-4f);
  EXPECT_NEAR(spec.max_value(), 255.0f, 1e-3f);
}

TEST(Spectrum, DcPeakSitsAtCentre) {
  data::Rng rng(2);
  data::NoiseParams params;
  Image img = value_noise(64, 64, params, rng);
  const Image spec = centered_log_spectrum(img);
  // Peak should be the centre pixel (32, 32) for even sizes.
  float best = -1.0f;
  int bx = -1, by = -1;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (spec.at(x, y, 0) > best) {
        best = spec.at(x, y, 0);
        bx = x;
        by = y;
      }
    }
  }
  EXPECT_EQ(bx, 32);
  EXPECT_EQ(by, 32);
}

TEST(Spectrum, PeriodicGridCreatesHarmonicPeaks) {
  // A grid with period 4 embedded in a flat image must produce bright
  // points at +-N/4 from the centre — the CSP signature of attack images.
  constexpr int n = 64;
  Image img(n, n, 1, 128.0f);
  for (int y = 0; y < n; y += 4) {
    for (int x = 0; x < n; x += 4) img.at(x, y, 0) = 255.0f;
  }
  const Image spec = centered_log_spectrum(img);
  const int centre = n / 2;
  const float at_harmonic = spec.at(centre + n / 4, centre, 0);
  const float off_harmonic = spec.at(centre + n / 4 + 2, centre + 3, 0);
  EXPECT_GT(at_harmonic, 200.0f);
  EXPECT_LT(off_harmonic, at_harmonic * 0.3f);
}

TEST(Spectrum, NaturalNoiseHasEnergyConcentratedAtLowFrequencies) {
  data::Rng rng(3);
  data::NoiseParams params;
  params.octaves = 5;
  const Image img = value_noise(96, 96, params, rng);
  const HalfSpectrum stage = half_log_spectrum(img);
  const int n = 96;
  const int centre = n / 2;
  // Mean log-magnitude in a small disc around DC vs far corona.
  double near_sum = 0.0, far_sum = 0.0;
  int near_count = 0, far_count = 0;
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const double d = std::hypot(x - centre, y - centre);
      const double v = stage.centered(x, y);
      if (d > 0.5 && d < 8.0) {
        near_sum += v;
        ++near_count;
      } else if (d > 32.0 && d < 46.0) {
        far_sum += v;
        ++far_count;
      }
    }
  }
  EXPECT_GT(near_sum / near_count, far_sum / far_count + 1.0);
}

TEST(Spectrum, ColorInputUsesLuma) {
  data::Rng rng(4);
  data::NoiseParams params;
  const Image gray = value_noise(32, 32, params, rng);
  const Image rgb = [&] {
    Image out(32, 32, 3);
    for (int c = 0; c < 3; ++c) {
      auto dst = out.plane(c);
      auto src = gray.plane(0);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    return out;
  }();
  const Image spec_gray = centered_log_spectrum(gray);
  const Image spec_rgb = centered_log_spectrum(rgb);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_NEAR(spec_gray.at(x, y, 0), spec_rgb.at(x, y, 0), 2e-2f);
    }
  }
}

}  // namespace
}  // namespace decam
