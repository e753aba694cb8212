// Retained reference implementations of the imaging kernels, kept verbatim
// in spirit from the pre-optimization library (naive per-pixel window
// rebuilds, at_clamped addressing, column-strided vertical resize). The
// production code in src/imaging/ replaced these with O(1)-per-pixel
// algorithms; kernel_parity_test.cpp holds the fast paths to these
// definitions — exact for rank filters, within a documented last-ulp
// tolerance for the blurs and resize.
//
// These are deliberately slow and obvious. Do not "optimize" them: their
// only job is to be trivially auditable.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "imaging/filter.h"
#include "imaging/kernels.h"
#include "imaging/scale.h"
#include "metrics/fused.h"

namespace decam::testref {

// k x k rank filter, window anchored top-left covering
// {x..x+k-1} x {y..y+k-1}, clamped-border reads, per-pixel window rebuild.
// Matches the original rank_filter including the Median convention
// (nth_element at window.size() / 2, i.e. the upper median for even k*k).
inline Image rank_filter(const Image& img, int k, RankOp op) {
  Image out(img.width(), img.height(), img.channels());
  std::vector<float> window;
  window.reserve(static_cast<std::size_t>(k) * k);
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        window.clear();
        for (int dy = 0; dy < k; ++dy) {
          for (int dx = 0; dx < k; ++dx) {
            window.push_back(img.at_clamped(x + dx, y + dy, c));
          }
        }
        float value = 0.0f;
        switch (op) {
          case RankOp::Min:
            value = *std::min_element(window.begin(), window.end());
            break;
          case RankOp::Max:
            value = *std::max_element(window.begin(), window.end());
            break;
          case RankOp::Median: {
            auto mid = window.begin() + window.size() / 2;
            std::nth_element(window.begin(), mid, window.end());
            value = *mid;
            break;
          }
        }
        out.at(x, y, c) = value;
      }
    }
  }
  return out;
}

// Horizontal then vertical pass with a normalised odd-length 1-D kernel,
// per-pixel at_clamped reads, double accumulation in ascending tap order,
// one final cast — the accumulator contract documented in imaging/filter.h.
inline Image separable_convolve(const Image& img,
                                const std::vector<float>& kernel) {
  const int radius = static_cast<int>(kernel.size() / 2);
  Image mid(img.width(), img.height(), img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          acc += kernel[static_cast<std::size_t>(i + radius)] *
                 img.at_clamped(x + i, y, c);
        }
        mid.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  Image out(img.width(), img.height(), img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          acc += kernel[static_cast<std::size_t>(i + radius)] *
                 mid.at_clamped(x, y + i, c);
        }
        out.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

inline Image box_blur(const Image& img, int k) {
  std::vector<float> kernel(static_cast<std::size_t>(k), 1.0f / k);
  return separable_convolve(img, kernel);
}

inline Image gaussian_blur(const Image& img, double sigma) {
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-(i * i) / (2.0 * sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = static_cast<float>(w);
    sum += w;
  }
  for (float& w : kernel) w = static_cast<float>(w / sum);
  return separable_convolve(img, kernel);
}

// Separable resize in the original formulation: horizontal pass per row,
// then a column-strided vertical pass applying the same tap tables the
// production resize uses. Per output sample: double accumulation over taps
// in ascending source order, one final cast.
inline Image resize(const Image& src, int out_width, int out_height,
                    ScaleAlgo algo) {
  const KernelTable horiz = make_kernel_table(src.width(), out_width, algo);
  const KernelTable vert = make_kernel_table(src.height(), out_height, algo);
  Image mid(out_width, src.height(), src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < src.height(); ++y) {
      for (int x = 0; x < out_width; ++x) {
        double acc = 0.0;
        for (const Tap& tap : horiz.row(x)) {
          acc += static_cast<double>(tap.weight) * src.at(tap.index, y, c);
        }
        mid.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  Image out(out_width, out_height, src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < out_height; ++y) {
      for (int x = 0; x < out_width; ++x) {
        double acc = 0.0;
        for (const Tap& tap : vert.row(y)) {
          acc += static_cast<double>(tap.weight) * mid.at(x, tap.index, c);
        }
        out.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

// MSE, windowed SSIM and PSNR of one pair from the definition. Per plane
// and output pixel: 11-tap Gaussian (sigma 1.5) sums of a, b, a², b² and ab
// over edge-clamped columns, then 11-tap sums of those over edge-clamped
// rows, each accumulated from 0.0 in ascending tap order; the SSIM map is
// summed row-major, MSE in flat data order, and the plane means are
// averaged as pair_stats() does.
inline PairStats reference_pair_stats(const Image& a, const Image& b) {
  constexpr int kRadius = 5;
  constexpr int kTaps = 2 * kRadius + 1;
  constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
  constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
  std::array<double, kTaps> win{};
  double win_sum = 0.0;
  for (int i = -kRadius; i <= kRadius; ++i) {
    const double v = std::exp(-(i * i) / (2.0 * 1.5 * 1.5));
    win[static_cast<std::size_t>(i + kRadius)] = v;
    win_sum += v;
  }
  for (double& v : win) v /= win_sum;

  double mse_sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d =
        static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]);
    mse_sum += d * d;
  }

  const int w = a.width();
  const int h = a.height();
  double ssim_total = 0.0;
  for (int c = 0; c < a.channels(); ++c) {
    // Horizontal sums: mu_a, mu_b, a², b², ab per pixel.
    std::vector<std::array<double, 5>> horiz(a.plane_size());
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        std::array<double, 5> s{};
        for (int t = 0; t < kTaps; ++t) {
          const double wt = win[static_cast<std::size_t>(t)];
          const double da = a.at_clamped(x + t - kRadius, y, c);
          const double db = b.at_clamped(x + t - kRadius, y, c);
          s[0] += wt * da;
          s[1] += wt * db;
          s[2] += wt * (da * da);
          s[3] += wt * (db * db);
          s[4] += wt * (da * db);
        }
        horiz[static_cast<std::size_t>(y) * w + x] = s;
      }
    }
    double plane_sum = 0.0;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        std::array<double, 5> v{};
        for (int t = 0; t < kTaps; ++t) {
          const double wt = win[static_cast<std::size_t>(t)];
          const int sy = std::clamp(y + t - kRadius, 0, h - 1);
          const std::array<double, 5>& s =
              horiz[static_cast<std::size_t>(sy) * w + x];
          for (std::size_t k = 0; k < 5; ++k) v[k] += wt * s[k];
        }
        const double mu_a = v[0];
        const double mu_b = v[1];
        const double va = v[2] - mu_a * mu_a;
        const double vb = v[3] - mu_b * mu_b;
        const double cov = v[4] - mu_a * mu_b;
        const double num = (2.0 * mu_a * mu_b + kC1) * (2.0 * cov + kC2);
        const double den =
            (mu_a * mu_a + mu_b * mu_b + kC1) * (va + vb + kC2);
        plane_sum += num / den;
      }
    }
    ssim_total += plane_sum / static_cast<double>(a.plane_size());
  }

  PairStats stats;
  stats.mse = mse_sum / static_cast<double>(a.size());
  stats.ssim = ssim_total / a.channels();
  stats.psnr = stats.mse == 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 10.0 * std::log10(255.0 * 255.0 / stats.mse);
  return stats;
}

}  // namespace decam::testref
