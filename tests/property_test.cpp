// Cross-implementation property tests: each fast algorithm in the library
// is checked against an independent brute-force reference implementation
// written here (naive DFT, exhaustive QP grid search, brute-force blob
// count, direct 2-D resampling) on randomized inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "attack/qp_solver.h"
#include "cv/connected_components.h"
#include "data/rng.h"
#include "imaging/scale.h"
#include "metrics/ssim.h"
#include "signal/fft.h"

namespace decam {
namespace {

// ---------------------------------------------------------------- FFT ----

std::vector<Complex> naive_dft(const std::vector<Complex>& input) {
  const std::size_t n = input.size();
  std::vector<Complex> output(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * j % n) /
                           static_cast<double>(n);
      acc += input[j] * Complex(std::cos(angle), std::sin(angle));
    }
    output[k] = acc;
  }
  return output;
}

class FftVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsNaive, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  data::Rng rng(n * 31 + 7);
  std::vector<Complex> signal(n);
  for (auto& v : signal) {
    v = Complex(rng.next_range(-100.0, 100.0), rng.next_range(-100.0, 100.0));
  }
  const auto slow = naive_dft(signal);
  std::vector<Complex> fast = signal;
  fft(fast, false);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-6 * (1.0 + std::abs(slow[k])))
        << "n=" << n << " bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, FftVsNaive,
                         ::testing::Values(2, 3, 5, 8, 12, 17, 31, 32, 45),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// ----------------------------------------------------------------- QP ----

// Exhaustive grid search over a 2-variable box-constrained attack QP.
double brute_force_qp(const attack::CoeffMatrix& C,
                      const std::vector<double>& s,
                      const std::vector<double>& t, double eps) {
  double best = 1e300;
  for (double x0 = 0.0; x0 <= 255.0; x0 += 0.5) {
    for (double x1 = 0.0; x1 <= 255.0; x1 += 0.5) {
      const std::vector<double> x = {x0, x1};
      const auto y = C.multiply(x);
      bool feasible = true;
      for (std::size_t r = 0; r < y.size(); ++r) {
        if (std::fabs(y[r] - t[r]) > eps + 1e-9) feasible = false;
      }
      if (!feasible) continue;
      const double cost = (x0 - s[0]) * (x0 - s[0]) +
                          (x1 - s[1]) * (x1 - s[1]);
      best = std::min(best, cost);
    }
  }
  return best;
}

TEST(QpOptimality, MatchesBruteForceOnTwoVariableProblems) {
  data::Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    // One constraint over two variables with random positive weights.
    const float w0 = static_cast<float>(rng.next_range(0.1, 0.9));
    const std::vector<std::vector<Tap>> rows = {{{0, w0}, {1, 1.0f - w0}}};
    const attack::CoeffMatrix C{KernelTable::from_rows(2, rows)};
    const std::vector<double> s = {rng.next_range(0.0, 255.0),
                                   rng.next_range(0.0, 255.0)};
    const std::vector<double> t = {rng.next_range(0.0, 255.0)};
    attack::QpOptions options;
    options.eps = 2.0;
    options.tolerance = 0.01;
    options.max_sweeps = 300;
    const attack::QpResult result = attack::solve_attack_qp(C, s, t, options);
    ASSERT_TRUE(result.converged) << "trial " << trial;
    const double brute = brute_force_qp(C, s, t, options.eps);
    // The grid has 0.5 resolution; allow the corresponding slack.
    EXPECT_LE(result.delta_norm_sq, brute + 2.0) << "trial " << trial;
  }
}

TEST(QpOptimality, TwoOverlappingConstraintsStillNearOptimal) {
  // Rows sharing variable 1 (like adjacent bicubic rows).
  const std::vector<std::vector<Tap>> rows = {{{0, 0.7f}, {1, 0.3f}},
                                              {{0, 0.2f}, {1, 0.8f}}};
  const attack::CoeffMatrix C{KernelTable::from_rows(2, rows)};
  const std::vector<double> s = {60.0, 200.0};
  const std::vector<double> t = {180.0, 90.0};
  attack::QpOptions options;
  options.eps = 2.0;
  options.tolerance = 0.01;
  options.max_sweeps = 2000;
  const attack::QpResult result = attack::solve_attack_qp(C, s, t, options);
  ASSERT_TRUE(result.converged);
  const double brute = brute_force_qp(C, s, t, options.eps);
  EXPECT_LE(result.delta_norm_sq, brute + 2.0);
}

// -------------------------------------------------------------- blobs ----

// Brute-force component count via repeated mask erosion... simpler: union
// by repeated label propagation until fixpoint.
int brute_force_components(const std::vector<std::uint8_t>& mask, int w,
                           int h) {
  std::vector<int> label(static_cast<std::size_t>(w) * h, 0);
  int next = 0;
  for (std::size_t i = 0; i < label.size(); ++i) {
    if (mask[i] != 0) label[i] = ++next;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const std::size_t idx = static_cast<std::size_t>(y) * w + x;
        if (label[idx] == 0) continue;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int nx = x + dx;
            const int ny = y + dy;
            if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
            const std::size_t nidx = static_cast<std::size_t>(ny) * w + nx;
            if (label[nidx] != 0 && label[nidx] < label[idx]) {
              label[idx] = label[nidx];
              changed = true;
            }
          }
        }
      }
    }
  }
  std::vector<int> roots;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int l = label[static_cast<std::size_t>(y) * w + x];
      if (l != 0 && std::find(roots.begin(), roots.end(), l) == roots.end()) {
        roots.push_back(l);
      }
    }
  }
  return static_cast<int>(roots.size());
}

TEST(BlobProperty, CountMatchesBruteForceOnRandomMasks) {
  data::Rng rng(7);
  std::vector<std::size_t> stack;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> mask(24 * 18);
    for (std::uint8_t& v : mask) v = rng.next_bool(0.35) ? 1 : 0;
    const int expected = brute_force_components(mask, 24, 18);
    EXPECT_EQ(count_blobs(mask, 24, 18, 1, stack), expected)
        << "trial " << trial;
  }
}

// ------------------------------------------------------------- resize ----

TEST(ResizeProperty, LinearityOverImages) {
  // resize is a linear operator: resize(aX + bY) == a resize(X) + b resize(Y).
  data::Rng rng(13);
  Image x(20, 14, 1), y(20, 14, 1);
  for (float& v : x.plane(0)) v = static_cast<float>(rng.next_range(0, 255));
  for (float& v : y.plane(0)) v = static_cast<float>(rng.next_range(0, 255));
  Image combo(20, 14, 1);
  for (std::size_t i = 0; i < combo.plane(0).size(); ++i) {
    combo.plane(0)[i] = 0.3f * x.plane(0)[i] + 0.7f * y.plane(0)[i];
  }
  for (const ScaleAlgo algo : {ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
                               ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
    const Image rx = resize(x, 7, 5, algo);
    const Image ry = resize(y, 7, 5, algo);
    const Image rc = resize(combo, 7, 5, algo);
    for (int py = 0; py < 5; ++py) {
      for (int px = 0; px < 7; ++px) {
        EXPECT_NEAR(rc.at(px, py, 0),
                    0.3f * rx.at(px, py, 0) + 0.7f * ry.at(px, py, 0), 1e-2f)
            << to_string(algo);
      }
    }
  }
}

TEST(SsimProperty, InvariantToGlobalPermutationOfBothImages) {
  // SSIM(I, J) compares local structure; applying the SAME spatial shuffle
  // of rows to both images preserves per-window statistics only for
  // translations — but a simple sanity invariant holds: SSIM is symmetric
  // and bounded on random pairs.
  data::Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    Image a(16, 16, 1), b(16, 16, 1);
    for (float& v : a.plane(0)) v = static_cast<float>(rng.next_range(0, 255));
    for (float& v : b.plane(0)) v = static_cast<float>(rng.next_range(0, 255));
    const double s_ab = ssim(a, b);
    const double s_ba = ssim(b, a);
    EXPECT_NEAR(s_ab, s_ba, 1e-12);
    EXPECT_GE(s_ab, -1.0);
    EXPECT_LE(s_ab, 1.0);
  }
}

}  // namespace
}  // namespace decam
