// Retained reference implementations of the imaging kernels, kept verbatim
// in spirit from the pre-optimization library (naive per-pixel window
// rebuilds, at_clamped addressing, column-strided vertical resize). The
// production code in src/imaging/ replaced these with O(1)-per-pixel
// algorithms; kernel_parity_test.cpp holds the fast paths to these
// definitions — exact for rank filters, within a documented last-ulp
// tolerance for the blurs and resize. The k = 3 median's two-pass Grid8
// route follows the rank filter. The spectrum's polynomial log sits at
// the end, for the bit-exact half-plane spectrum test, then the explicit
// BT.601 luma image that the colour FFT parity test transforms, the
// interleaved 2-D transform and fftshift the spectrum stage ran before its
// four-line lanes (the bit-for-bit reference of half_log_spectrum), and the
// CSP chain as it ran on a rendered float spectrum before the one-pass walk.
//
// These are deliberately slow and obvious. Do not "optimize" them: their
// only job is to be trivially auditable.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "imaging/filter.h"
#include "imaging/kernels.h"
#include "imaging/scale.h"
#include "metrics/fused.h"
#include "signal/fft_plan.h"

namespace decam::testref {

// k x k rank filter, window anchored top-left covering
// {x..x+k-1} x {y..y+k-1}, clamped-border reads, per-pixel window rebuild.
// Matches the original rank_filter including the Median convention
// (nth_element at window.size() / 2, i.e. the upper median for even k*k),
// with a NaN counted as larger than every number (imaging/filter.h).
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
            std::nth_element(window.begin(), mid, window.end(),
                             [](float a, float b) {
                               return a < b || (std::isnan(b) && !std::isnan(a));
                             });
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

// The k = 3 median's Grid8 route as it ran in two passes before the
// one-pass ring: classify the whole image in blocks of 1024 samples (each
// block a branch-free pass of compares, (x + 2^23) - 2^23 == x plus the
// range compares), relabel each plane to a u8 index plane, then per row
// sort each column of the clamped 3-row window into lo/mid/hi, pad the
// three rows by repeating column w - 1 twice, and take
// med3(max3(lo), med3(mid), min3(hi)). The bit-for-bit reference of
// rank_filter(img, 3, Median) on the grid; an image the classifier sends
// to the exact route gets nothing.
inline std::optional<Image> median3_two_pass(const Image& img) {
  constexpr std::size_t kBlock = 1024;
  constexpr float kRound = 8388608.0f;  // 2^23
  const float* data = img.data();
  for (std::size_t start = 0; start < img.size(); start += kBlock) {
    const std::size_t end = std::min(img.size(), start + kBlock);
    int on8 = 1;
    for (std::size_t i = start; i < end; ++i) {
      const float v = data[i];
      on8 &= (v >= 0.0f) & (v <= 255.0f) & ((v + kRound) - kRound == v);
    }
    if (on8 == 0) return std::nullopt;
  }
  const auto med3 = [](std::uint8_t a, std::uint8_t b, std::uint8_t c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };
  const int w = img.width();
  const int h = img.height();
  const std::size_t padded = static_cast<std::size_t>(w) + 2;
  Image out(w, h, img.channels());
  std::vector<std::uint8_t> idx(img.plane_size());
  std::vector<std::uint8_t> lo(padded), mid(padded), hi(padded);
  for (int c = 0; c < img.channels(); ++c) {
    const float* plane = img.plane(c).data();
    for (std::size_t i = 0; i < idx.size(); ++i) {
      idx[i] = static_cast<std::uint8_t>(static_cast<int>(plane[i]));
    }
    for (int y = 0; y < h; ++y) {
      const std::uint8_t* r0 = idx.data() + static_cast<std::size_t>(y) * w;
      const std::uint8_t* r1 =
          idx.data() + static_cast<std::size_t>(std::min(y + 1, h - 1)) * w;
      const std::uint8_t* r2 =
          idx.data() + static_cast<std::size_t>(std::min(y + 2, h - 1)) * w;
      for (int x = 0; x < w; ++x) {
        const std::uint8_t a = std::min(r0[x], r1[x]);
        const std::uint8_t b = std::max(r0[x], r1[x]);
        lo[x] = std::min(a, r2[x]);
        mid[x] = std::max(a, std::min(b, r2[x]));
        hi[x] = std::max(b, r2[x]);
      }
      lo[w] = lo[w + 1] = lo[w - 1];
      mid[w] = mid[w + 1] = mid[w - 1];
      hi[w] = hi[w + 1] = hi[w - 1];
      for (int x = 0; x < w; ++x) {
        const std::uint8_t max_lo =
            std::max(std::max(lo[x], lo[x + 1]), lo[x + 2]);
        const std::uint8_t med_mid = med3(mid[x], mid[x + 1], mid[x + 2]);
        const std::uint8_t min_hi =
            std::min(std::min(hi[x], hi[x + 1]), hi[x + 2]);
        out.at(x, y, c) = static_cast<float>(med3(max_lo, med_mid, min_hi));
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

// log(1 + |v|) through the same polynomial log the spectrum uses
// (signal/spectrum.cpp: exponent/mantissa split biased by sqrt(1/2), atanh
// series), so spectrum tests can compare magnitudes with EXPECT_EQ.
inline double log1p_magnitude(const std::complex<double>& v) {
  const double u =
      1.0 + std::sqrt(v.real() * v.real() + v.imag() * v.imag());
  constexpr std::uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDULL;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::int64_t e =
      static_cast<std::int64_t>(bits - kSqrtHalfBits) >> 52;
  const double f = std::bit_cast<double>(
      bits - (static_cast<std::uint64_t>(e) << 52));
  const double r = (f - 1.0) / (f + 1.0);
  const double r2 = r * r;
  const double poly =
      1.0 +
      r2 * (1.0 / 3.0 +
            r2 * (1.0 / 5.0 +
                  r2 * (1.0 / 7.0 +
                        r2 * (1.0 / 9.0 +
                              r2 * (1.0 / 11.0 + r2 * (1.0 / 13.0))))));
  constexpr double kLn2 = 0.6931471805599453;
  return static_cast<double>(e) * kLn2 + 2.0 * r * poly;
}

// BT.601 luma, 0.299 R + 0.587 G + 0.114 B in float (the weights of
// OpenCV's BGR2GRAY), as a materialised 1-channel image. fft2d computes the
// same expression per pixel on the fly.
inline Image to_gray(const Image& img) {
  Image out(img.width(), img.height(), 1);
  const auto r = img.plane(0);
  const auto g = img.plane(1);
  const auto b = img.plane(2);
  auto y = out.plane(0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
  }
  return out;
}

// The 2-D transform as the spectrum stage ran it before the lanes: one
// interleaved complex line at a time through PlannedFft, into a w x h
// complex plane. Row pass, two real rows per complex transform:
// z = row0 + i*row1 costs one FFT, and the two spectra untangle through
// Hermitian symmetry
//   F0[k] = (Z[k] + conj(Z[w-k])) / 2,  F1[k] = -i (Z[k] - conj(Z[w-k])) / 2;
// an odd last row runs alone. Then columns 0..w/2, gathered eight at a
// time into contiguous tiles. Only those columns are written.
inline void fft2d_half_plane(const Image& img, std::vector<Complex>& out) {
  const int w = img.width();
  const int h = img.height();
  const std::size_t stride = static_cast<std::size_t>(w);
  out.resize(img.plane_size());
  const bool rgb = img.channels() == 3;
  const float* r = img.data();
  const float* g = rgb ? r + img.plane_size() : nullptr;
  const float* b = rgb ? r + 2 * img.plane_size() : nullptr;
  const auto luma = [&](std::size_t i) -> double {
    if (!rgb) return static_cast<double>(r[i]);
    const float y = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
    return static_cast<double>(y);
  };
  const int x_end = w / 2 + 1;
  const PlannedFft row_fft(static_cast<std::size_t>(w), false);
  std::vector<Complex> z(stride);
  int y = 0;
  for (; y + 1 < h; y += 2) {
    const std::size_t i0 = static_cast<std::size_t>(y) * stride;
    const std::size_t i1 = i0 + stride;
    for (int x = 0; x < w; ++x) {
      z[static_cast<std::size_t>(x)] = Complex(luma(i0 + x), luma(i1 + x));
    }
    row_fft(z.data());
    Complex* o0 = out.data() + i0;
    Complex* o1 = out.data() + i1;
    o0[0] = Complex(z[0].real(), 0.0);
    o1[0] = Complex(z[0].imag(), 0.0);
    for (int k = 1; k < x_end; ++k) {
      const Complex a = z[static_cast<std::size_t>(k)];
      const Complex bk = std::conj(z[static_cast<std::size_t>(w - k)]);
      const Complex sum = a + bk;
      const Complex diff = a - bk;
      o0[k] = Complex(0.5 * sum.real(), 0.5 * sum.imag());
      o1[k] = Complex(0.5 * diff.imag(), -0.5 * diff.real());
    }
  }
  if (h & 1) {
    const std::size_t i0 = static_cast<std::size_t>(h - 1) * stride;
    for (int x = 0; x < w; ++x) {
      z[static_cast<std::size_t>(x)] = Complex(luma(i0 + x), 0.0);
    }
    row_fft(z.data());
    std::copy_n(z.data(), x_end, out.data() + i0);
  }
  if (h == 1) return;
  constexpr int kColumnTile = 8;
  const PlannedFft col_fft(static_cast<std::size_t>(h), false);
  const std::size_t hs = static_cast<std::size_t>(h);
  std::vector<Complex> tile(hs * kColumnTile);
  for (int x = 0; x < x_end; x += kColumnTile) {
    const int tw = std::min(kColumnTile, x_end - x);
    for (int yy = 0; yy < h; ++yy) {
      const Complex* src = out.data() + static_cast<std::size_t>(yy) * w + x;
      for (int c = 0; c < tw; ++c) tile[static_cast<std::size_t>(c) * hs + yy] = src[c];
    }
    for (int c = 0; c < tw; ++c) col_fft(tile.data() + static_cast<std::size_t>(c) * hs);
    for (int yy = 0; yy < h; ++yy) {
      Complex* dst = out.data() + static_cast<std::size_t>(yy) * w + x;
      for (int c = 0; c < tw; ++c) dst[c] = tile[static_cast<std::size_t>(c) * hs + yy];
    }
  }
}

// The full plane: the half plane, and its right half from
// F[y][x] = conj(F[(h-y) mod h][w-x]).
inline std::vector<Complex> fft2d(const Image& img) {
  std::vector<Complex> out;
  fft2d_half_plane(img, out);
  const int w = img.width();
  const int h = img.height();
  const std::size_t stride = static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    const std::size_t ym = y == 0 ? 0 : static_cast<std::size_t>(h - y);
    const Complex* src = out.data() + ym * stride;
    Complex* dst = out.data() + static_cast<std::size_t>(y) * stride;
    for (int x = w / 2 + 1; x < w; ++x) dst[x] = std::conj(src[w - x]);
  }
  return out;
}

// Swaps quadrants so the zero-frequency bin moves to the centre, in place:
// each row rotated right by w/2, then the rows by h/2 (a block swap for
// even heights, the rotation's permutation cycles for odd ones).
inline void fftshift(std::vector<Complex>& data, int width, int height) {
  const int hx = width / 2;
  const int hy = height / 2;
  if (hx > 0) {
    for (int y = 0; y < height; ++y) {
      Complex* row = data.data() + static_cast<std::size_t>(y) * width;
      std::rotate(row, row + (width - hx), row + width);
    }
  }
  if (hy == 0) return;
  const std::size_t stride = static_cast<std::size_t>(width);
  if (height % 2 == 0) {
    for (int y = 0; y < hy; ++y) {
      Complex* a = data.data() + static_cast<std::size_t>(y) * stride;
      Complex* b = data.data() + static_cast<std::size_t>(y + hy) * stride;
      std::swap_ranges(a, a + stride, b);
    }
    return;
  }
  std::vector<Complex> tmp(stride);
  const int cycles = std::gcd(height, hy);
  for (int c = 0; c < cycles; ++c) {
    std::copy_n(data.data() + static_cast<std::size_t>(c) * stride, stride,
                tmp.data());
    int dst = c;
    while (true) {
      int src = dst - hy;
      if (src < 0) src += height;
      if (src == c) break;
      std::copy_n(data.data() + static_cast<std::size_t>(src) * stride, stride,
                  data.data() + static_cast<std::size_t>(dst) * stride);
      dst = src;
    }
    std::copy_n(tmp.data(), stride,
                data.data() + static_cast<std::size_t>(dst) * stride);
  }
}

// The spectrum stage from the interleaved transform: log1p_magnitude of
// columns 0..w/2, row-major, and the range.
struct HalfLogSpectrum {
  std::vector<double> logmag;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
};

inline HalfLogSpectrum half_log_spectrum(const Image& img) {
  std::vector<Complex> freq;
  fft2d_half_plane(img, freq);
  const int w = img.width();
  const int hw = w / 2 + 1;
  HalfLogSpectrum out;
  out.logmag.reserve(static_cast<std::size_t>(img.height()) * hw);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < hw; ++x) {
      const double v =
          log1p_magnitude(freq[static_cast<std::size_t>(y) * w + x]);
      out.logmag.push_back(v);
      out.lo = std::min(out.lo, v);
      out.hi = std::max(out.hi, v);
    }
  }
  return out;
}

// The CSP chain on a rendered spectrum (centered_log_spectrum): the
// circular low-pass copy, the masked stats loop, binarisation into a float
// plane and the flood fill over it — the steganalysis detector's reduction
// before it became one walk over the spectrum stage.
struct CspChain {
  int blobs = 0;
  double level = 0.0;
};

inline Image circular_low_pass(const Image& img, double radius) {
  Image out = img;
  const double cx = (img.width() - 1) / 2.0;
  const double cy = (img.height() - 1) / 2.0;
  const double r2 = radius * radius;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy > r2) out.at(x, y, 0) = 0.0f;
    }
  }
  return out;
}

inline Image binarize(const Image& img, float level) {
  Image out(img.width(), img.height(), 1);
  const auto src = img.plane(0);
  auto dst = out.plane(0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i] > level ? 255.0f : 0.0f;
  }
  return out;
}

inline int count_blobs(const Image& binary, int min_area) {
  const int w = binary.width();
  const int h = binary.height();
  const auto src = binary.plane(0);
  std::vector<std::uint8_t> visited(src.size(), 0);
  std::vector<std::size_t> stack;
  int count = 0;
  for (std::size_t seed = 0; seed < src.size(); ++seed) {
    if (src[seed] <= 0.0f || visited[seed] != 0) continue;
    int area = 0;
    stack.push_back(seed);
    visited[seed] = 1;
    while (!stack.empty()) {
      const std::size_t idx = stack.back();
      stack.pop_back();
      ++area;
      const int x = static_cast<int>(idx % static_cast<std::size_t>(w));
      const int y = static_cast<int>(idx / static_cast<std::size_t>(w));
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = x + dx;
          const int ny = y + dy;
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::size_t nidx = static_cast<std::size_t>(ny) * w + nx;
          if (src[nidx] > 0.0f && visited[nidx] == 0) {
            visited[nidx] = 1;
            stack.push_back(nidx);
          }
        }
      }
    }
    if (area >= min_area) ++count;
  }
  return count;
}

inline CspChain csp_chain(const Image& spectrum, double radius_fraction,
                          double binarize_k, int min_area) {
  const double radius = radius_fraction *
                        std::min(spectrum.width(), spectrum.height()) / 2.0;
  const Image masked = circular_low_pass(spectrum, radius);
  const double cx = (masked.width() - 1) / 2.0;
  const double cy = (masked.height() - 1) / 2.0;
  const double r2 = radius * radius;
  double sum = 0.0, sum_sq = 0.0;
  std::size_t count = 0;
  for (int y = 0; y < masked.height(); ++y) {
    for (int x = 0; x < masked.width(); ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy > r2) continue;
      const double v = masked.at(x, y, 0);
      sum += v;
      sum_sq += v * v;
      ++count;
    }
  }
  DECAM_REQUIRE(count > 0, "low-pass mask left no pixels");
  const double mean = sum / static_cast<double>(count);
  const double variance =
      std::max(sum_sq / static_cast<double>(count) - mean * mean, 0.0);
  const double level = mean + binarize_k * std::sqrt(variance);
  const Image binary =
      binarize(masked, static_cast<float>(std::min(level, 254.0)));
  return {count_blobs(binary, min_area), level};
}

}  // namespace decam::testref
