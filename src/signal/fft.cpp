#include "signal/fft.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/span.h"

namespace decam {
namespace {

// Cache-blocked column pass over columns [0, x_end): each sweep gathers a
// tile of columns into contiguous scratch, transforms them, and scatters
// back. The gather/scatter walks the grid row-wise (sequential reads with a
// handful of open write streams), so every cache line of the plane is
// touched once per tile instead of once per column.
constexpr int kColumnTile = 8;

void fft_columns(Complex* data, int width, int height, int x_end,
                 const PlannedFft& col_fft) {
  thread_local std::vector<Complex> tile;
  const std::size_t h = static_cast<std::size_t>(height);
  const std::size_t need =
      h * static_cast<std::size_t>(std::min(kColumnTile, x_end));
  if (tile.size() < need) tile.resize(need);
  for (int x = 0; x < x_end; x += kColumnTile) {
    const int tw = std::min(kColumnTile, x_end - x);
    for (int y = 0; y < height; ++y) {
      const Complex* src = data + static_cast<std::size_t>(y) * width + x;
      for (int c = 0; c < tw; ++c) {
        tile[static_cast<std::size_t>(c) * h + y] = src[c];
      }
    }
    for (int c = 0; c < tw; ++c) {
      col_fft(tile.data() + static_cast<std::size_t>(c) * h);
    }
    for (int y = 0; y < height; ++y) {
      Complex* dst = data + static_cast<std::size_t>(y) * width + x;
      for (int c = 0; c < tw; ++c) {
        dst[c] = tile[static_cast<std::size_t>(c) * h + y];
      }
    }
  }
}

}  // namespace

void fft(std::vector<Complex>& data, bool inverse) {
  DECAM_REQUIRE(!data.empty(), "fft of empty signal");
  if (data.size() == 1) return;
  const PlannedFft plan(data.size(), inverse);
  plan(data.data());
}

void fft2d_half_plane(const Image& img, std::vector<Complex>& out) {
  DECAM_SPAN("signal/fft2d");
  DECAM_REQUIRE(!img.empty(), "fft2d of empty image");
  DECAM_REQUIRE(img.channels() == 1 || img.channels() == 3,
                "fft2d expects 1 or 3 channels");
  const int w = img.width();
  const int h = img.height();
  const std::size_t stride = static_cast<std::size_t>(w);
  out.resize(img.plane_size());

  // BT.601 luma (OpenCV's BGR2GRAY weights) without materialising a gray
  // Image: one float expression per pixel, widened to double afterwards.
  const bool rgb = img.channels() == 3;
  const float* r = img.data();
  const float* g = rgb ? r + img.plane_size() : nullptr;
  const float* b = rgb ? r + 2 * img.plane_size() : nullptr;
  const auto luma = [&](std::size_t i) -> double {
    if (!rgb) return static_cast<double>(r[i]);
    const float y = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
    return static_cast<double>(y);
  };

  // Columns 0..w/2 carry all the information of a real input; only they
  // are untangled and column-transformed.
  const int x_end = w / 2 + 1;

  // Row pass, two real rows per complex transform: z = row0 + i*row1 costs
  // one FFT; the two spectra untangle through Hermitian symmetry
  //   F0[k] = (Z[k] + conj(Z[w-k])) / 2,  F1[k] = -i (Z[k] - conj(Z[w-k])) / 2.
  const PlannedFft row_fft(static_cast<std::size_t>(w), false);
  thread_local std::vector<Complex> z;
  if (z.size() < stride) z.resize(stride);
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

  if (h > 1) {
    const PlannedFft col_fft(static_cast<std::size_t>(h), false);
    fft_columns(out.data(), w, h, x_end, col_fft);
  }
}

void fft2d(const Image& img, std::vector<Complex>& out) {
  fft2d_half_plane(img, out);
  // The right half follows from F[y][x] = conj(F[(h-y) mod h][w-x]).
  const int w = img.width();
  const int h = img.height();
  const std::size_t stride = static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    const std::size_t ym = y == 0 ? 0 : static_cast<std::size_t>(h - y);
    const Complex* src = out.data() + ym * stride;
    Complex* dst = out.data() + static_cast<std::size_t>(y) * stride;
    for (int x = w / 2 + 1; x < w; ++x) dst[x] = std::conj(src[w - x]);
  }
}

std::vector<Complex> fft2d(const Image& img) {
  std::vector<Complex> out;
  fft2d(img, out);
  return out;
}

void fftshift(std::vector<Complex>& data, int width, int height) {
  DECAM_REQUIRE(data.size() == static_cast<std::size_t>(width) * height,
                "fftshift buffer size mismatch");
  const int hx = width / 2;
  const int hy = height / 2;
  // Rotate each row right by hx (std::rotate is in place for odd widths;
  // for even widths it degenerates to swapping the two halves).
  if (hx > 0) {
    for (int y = 0; y < height; ++y) {
      Complex* row = data.data() + static_cast<std::size_t>(y) * width;
      std::rotate(row, row + (width - hx), row + width);
    }
  }
  if (hy == 0) return;
  const std::size_t stride = static_cast<std::size_t>(width);
  if (height % 2 == 0) {
    // Even height: rotating rows by h/2 is a pairwise block swap — no
    // scratch at all.
    for (int y = 0; y < hy; ++y) {
      Complex* a = data.data() + static_cast<std::size_t>(y) * stride;
      Complex* b = data.data() + static_cast<std::size_t>(y + hy) * stride;
      std::swap_ranges(a, a + stride, b);
    }
  } else {
    // Odd height: follow the rotation's permutation cycles with a single
    // row of scratch (dst takes the row hy below it, wrapping).
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
        std::copy_n(data.data() + static_cast<std::size_t>(src) * stride,
                    stride, data.data() + static_cast<std::size_t>(dst) * stride);
        dst = src;
      }
      std::copy_n(tmp.data(), stride,
                  data.data() + static_cast<std::size_t>(dst) * stride);
    }
  }
}

}  // namespace decam
