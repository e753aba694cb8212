// The FFT butterflies, written once over the lane type (DESIGN.md §10).
//
// A transform works on split arrays: element j of line l sits at
// re[j * W + l] and im[j * W + l], where W is the width of the lane type V.
// Three instantiations exist and no other copy of the radix kernels does:
//   - double (W = 1): the 1-D transform of signal/fft_plan.cpp (fft(), the
//     Bluestein kernel build);
//   - __m256d (W = 4): the AVX2 SimdOps table's fft_lanes;
//   - four plain doubles (W = 4): the scalar table's fft_lanes.
// Each lane performs exactly the 1-D sequence of IEEE operations — a
// multiply, then an add, never a fused one — so lane l of a four-line
// transform is bit for bit the 1-D transform of line l. Every translation
// unit that includes this header is compiled with -ffp-contract=off.
//
// The function templates have internal linkage on purpose, like
// fill_pair_products in common/simd_kernels.h: each TU compiles its own
// copy with its own instruction set, so no AVX2 code can reach a scalar TU
// through a shared inline definition.
#pragma once

#include <cstddef>

#include "common/simd.h"

namespace decam::simd {
namespace detail {
namespace {

// What a lane type V provides besides +, - and * (with a V or a double):
// its width, loads and stores at a double pointer, and a broadcast. Each
// table specialises it for its own type.
template <class V>
struct LaneTraits;

template <>
struct LaneTraits<double> {
  static constexpr std::size_t width = 1;
  static double load(const double* p) { return *p; }
  static void store(double* p, double v) { *p = v; }
  static double broadcast(double x) { return x; }
};

// cos and sin of 2*pi*k/R for k in [1, R/2], correctly rounded.
template <int R>
struct Roots;
template <>
struct Roots<3> {
  static constexpr double c[] = {-0.5};
  static constexpr double s[] = {0.8660254037844386};
};
template <>
struct Roots<5> {
  static constexpr double c[] = {0.30901699437494745, -0.8090169943749475};
  static constexpr double s[] = {0.9510565162951535, 0.5877852522924731};
};
template <>
struct Roots<7> {
  static constexpr double c[] = {0.6234898018587335, -0.2225209339563144,
                                 -0.9009688679024191};
  static constexpr double s[] = {0.7818314824680298, 0.9749279121818236,
                                 0.4338837391175581};
};

// In-place R-point DFT of (re, im), W = exp(sign*2*pi*i/R); `sign` is -1
// for the forward transform and +1 for the inverse.
template <int R, class V>
inline void small_dft(V (&re)[R], V (&im)[R], double sign) {
  if constexpr (R == 2) {
    const V r0 = re[0] + re[1], i0 = im[0] + im[1];
    re[1] = re[0] - re[1];
    im[1] = im[0] - im[1];
    re[0] = r0;
    im[0] = i0;
  } else if constexpr (R == 4) {
    const V u0r = re[0] + re[2], u0i = im[0] + im[2];
    const V u1r = re[0] - re[2], u1i = im[0] - im[2];
    const V u2r = re[1] + re[3], u2i = im[1] + im[3];
    const V u3r = re[1] - re[3], u3i = im[1] - im[3];
    // W^1 = (0, sign)
    const V ju3r = -sign * u3i, ju3i = sign * u3r;
    re[0] = u0r + u2r;
    im[0] = u0i + u2i;
    re[1] = u1r + ju3r;
    im[1] = u1i + ju3i;
    re[2] = u0r - u2r;
    im[2] = u0i - u2i;
    re[3] = u1r - ju3r;
    im[3] = u1i - ju3i;
  } else {
    // Odd R: pair input j with R - j, t_j = a_j + a_{R-j} and
    // d_j = a_j - a_{R-j}. For k in [1, R/2], with sums over j in [1, R/2],
    //   X[k]     = a0 + sum cos(2pi jk/R) t_j + i sign sum sin(2pi jk/R) d_j
    //   X[R - k] = the same with the sine term subtracted.
    constexpr int H = R / 2;
    V tr[H], ti[H], dr[H], di[H];
    V b0r = re[0], b0i = im[0];
    for (int j = 1; j <= H; ++j) {
      tr[j - 1] = re[j] + re[R - j];
      ti[j - 1] = im[j] + im[R - j];
      dr[j - 1] = re[j] - re[R - j];
      di[j - 1] = im[j] - im[R - j];
      b0r = b0r + tr[j - 1];
      b0i = b0i + ti[j - 1];
    }
    const V zero = LaneTraits<V>::broadcast(0.0);
    for (int k = 1; k <= H; ++k) {
      V mr = re[0], mi = im[0], nr = zero, ni = zero;
      for (int j = 1; j <= H; ++j) {
        // Reduce jk mod R into [1, R/2]: cos is even, sin odd about R/2.
        const int jk = (j * k) % R;
        const bool upper = jk > H;
        const int idx = upper ? R - jk : jk;
        const double c = Roots<R>::c[idx - 1];
        const double s = upper ? -Roots<R>::s[idx - 1] : Roots<R>::s[idx - 1];
        mr = mr + c * tr[j - 1];
        mi = mi + c * ti[j - 1];
        nr = nr + s * dr[j - 1];
        ni = ni + s * di[j - 1];
      }
      nr = nr * sign;
      ni = ni * sign;
      re[k] = mr - ni;
      im[k] = mi + nr;
      re[R - k] = mr + ni;
      im[R - k] = mi - nr;
    }
    re[0] = b0r;
    im[0] = b0i;
  }
}

// The butterflies of one p across the `stride` interleaved sub-transforms:
// inputs at element q + span*j, outputs at q + stride*k, twiddles w[k - 1]
// as (re, im) pairs.
template <int R, bool kTwiddled, class V>
inline void butterflies(std::size_t stride, std::size_t span,
                        const double* in_re, const double* in_im,
                        double* out_re, double* out_im, const double* w,
                        double sign) {
  using L = LaneTraits<V>;
  constexpr std::size_t W = L::width;
  for (std::size_t q = 0; q < stride; ++q) {
    V re[R], im[R];
    for (int j = 0; j < R; ++j) {
      re[j] = L::load(in_re + (q + span * j) * W);
      im[j] = L::load(in_im + (q + span * j) * W);
    }
    small_dft<R>(re, im, sign);
    L::store(out_re + q * W, re[0]);
    L::store(out_im + q * W, im[0]);
    for (int k = 1; k < R; ++k) {
      const std::size_t o = (q + stride * k) * W;
      if constexpr (kTwiddled) {
        const double wr = w[2 * (k - 1)], wi = w[2 * (k - 1) + 1];
        L::store(out_re + o, re[k] * wr - im[k] * wi);
        L::store(out_im + o, re[k] * wi + im[k] * wr);
      } else {
        L::store(out_re + o, re[k]);
        L::store(out_im + o, im[k]);
      }
    }
  }
}

// One Stockham stage, x -> y (FftStage documents the indexing). With
// m = 1 — always the last stage — every butterfly writes the positions it
// read, so x == y is allowed.
template <int R, class V>
void run_stage(const FftStage& st, const double* tw, double sign,
               const double* xr, const double* xi, double* yr, double* yi) {
  constexpr std::size_t W = LaneTraits<V>::width;
  const std::size_t m = st.m;
  const std::size_t stride = st.stride;
  const std::size_t span = stride * m;
  butterflies<R, false, V>(stride, span, xr, xi, yr, yi, nullptr, sign);
  for (std::size_t p = 1; p < m; ++p) {
    butterflies<R, true, V>(stride, span, xr + stride * p * W,
                            xi + stride * p * W, yr + stride * R * p * W,
                            yi + stride * R * p * W,
                            tw + 2 * (p - 1) * (R - 1), sign);
  }
}

// Every stage, no normalisation. Stages alternate between (re, im) and
// `scratch` (2 * n elements); the last one (m = 1) runs in place when its
// input is (re, im), so the result always lands there without a copy.
template <class V>
void run_stages(const FftStages& plan, double* re, double* im,
                double* scratch) {
  if (plan.count == 0) return;
  constexpr std::size_t W = LaneTraits<V>::width;
  double* const scratch_re = scratch;
  double* const scratch_im = scratch + plan.n * W;
  const double sign = plan.inverse ? 1.0 : -1.0;
  const double* src_re = re;
  const double* src_im = im;
  for (std::size_t i = 0; i < plan.count; ++i) {
    const FftStage& st = plan.stages[i];
    const bool in_data = src_re == re;
    const bool to_data = i + 1 == plan.count || !in_data;
    double* const dst_re = to_data ? re : scratch_re;
    double* const dst_im = to_data ? im : scratch_im;
    const double* tw = plan.twiddles + 2 * std::size_t{st.twiddle_offset};
    switch (st.radix) {
      case 2: run_stage<2, V>(st, tw, sign, src_re, src_im, dst_re, dst_im); break;
      case 3: run_stage<3, V>(st, tw, sign, src_re, src_im, dst_re, dst_im); break;
      case 4: run_stage<4, V>(st, tw, sign, src_re, src_im, dst_re, dst_im); break;
      case 5: run_stage<5, V>(st, tw, sign, src_re, src_im, dst_re, dst_im); break;
      default: run_stage<7, V>(st, tw, sign, src_re, src_im, dst_re, dst_im); break;
    }
    src_re = dst_re;
    src_im = dst_im;
  }
}

// (re, im) <- (re, im) * w[k] for elements [0, n) with w as (re, im)
// pairs, each product scaled by `scale`: the Bluestein chirp and kernel
// multiplies. Real and imaginary products are spelled out — never
// std::complex operator*, whose NaN-recovery branch would block
// vectorisation.
template <class V, bool kScaled>
inline void multiply(const double* in_re, const double* in_im, double* re,
                     double* im, const double* w, std::size_t n,
                     double scale) {
  using L = LaneTraits<V>;
  constexpr std::size_t W = L::width;
  for (std::size_t k = 0; k < n; ++k) {
    const V ar = L::load(in_re + k * W), ai = L::load(in_im + k * W);
    const double wr = w[2 * k], wi = w[2 * k + 1];
    if constexpr (kScaled) {
      L::store(re + k * W, scale * (ar * wr - ai * wi));
      L::store(im + k * W, scale * (ar * wi + ai * wr));
    } else {
      L::store(re + k * W, ar * wr - ai * wi);
      L::store(im + k * W, ar * wi + ai * wr);
    }
  }
}

// The whole planned transform (FftLanePlan), in place over n elements of
// (re, im); `work` holds W * fft_work_doubles(plan) doubles.
template <class V>
void fft_exec(const FftLanePlan& plan, double* re, double* im,
              double* work) {
  using L = LaneTraits<V>;
  constexpr std::size_t W = L::width;
  const std::size_t n = plan.n;
  if (!plan.chirp) {
    run_stages<V>(plan.smooth, re, im, work);
    if (plan.inverse) {
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        L::store(re + i * W, L::load(re + i * W) * inv_n);
        L::store(im + i * W, L::load(im + i * W) * inv_n);
      }
    }
    return;
  }
  const std::size_t m = plan.smooth.n;
  double* const xr = work;
  double* const xi = work + m * W;
  double* const scratch = work + 2 * m * W;
  multiply<V, false>(re, im, xr, xi, plan.chirp, n, 1.0);
  const V zero = L::broadcast(0.0);
  for (std::size_t k = n; k < m; ++k) {
    L::store(xr + k * W, zero);
    L::store(xi + k * W, zero);
  }
  run_stages<V>(plan.smooth, xr, xi, scratch);
  multiply<V, false>(xr, xi, xr, xi, plan.kernel, m, 1.0);
  run_stages<V>(plan.conv_inverse, xr, xi, scratch);  // 1/m is in the kernel
  const double scale = plan.inverse ? 1.0 / static_cast<double>(n) : 1.0;
  multiply<V, true>(xr, xi, re, im, plan.chirp, n, scale);
}

}  // namespace
}  // namespace detail
}  // namespace decam::simd
