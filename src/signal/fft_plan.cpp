#include "signal/fft_plan.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "common/error.h"
#include "obs/lru_cache.h"

namespace decam {
namespace {

// Divides out 2, 3, 5 and 7: true when nothing else is left.
bool is_smooth(std::size_t n) {
  if (n == 0) return false;
  for (const std::size_t p : {2, 3, 5, 7}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

// ----------------------------------------------------------- plan build --

FftPlan make_fft_plan(std::size_t n, bool inverse) {
  DECAM_REQUIRE(is_smooth(n), "smooth FFT plan for a length with a prime "
                              "factor above 7");
  FftPlan plan;
  plan.n = n;
  plan.inverse = inverse;

  std::vector<std::uint32_t> radices;
  std::size_t rest = n;
  for (; rest % 4 == 0; rest /= 4) radices.push_back(4);
  if (rest % 2 == 0) {
    radices.push_back(2);
    rest /= 2;
  }
  for (const std::uint32_t r : {3u, 5u, 7u}) {
    for (; rest % r == 0; rest /= r) radices.push_back(r);
  }

  const double sign = inverse ? 1.0 : -1.0;
  std::size_t length = n;  // sub-transform length entering the stage
  std::size_t stride = 1;  // number of interleaved sub-transforms
  for (const std::uint32_t r : radices) {
    const std::size_t m = length / r;
    plan.stages.push_back({r, static_cast<std::uint32_t>(m),
                           static_cast<std::uint32_t>(stride),
                           static_cast<std::uint32_t>(plan.twiddles.size())});
    // Row p - 1 holds W^(p*k) for p in [1, m); the p = 0 butterflies skip
    // the multiply.
    const double base =
        sign * 2.0 * std::numbers::pi / static_cast<double>(length);
    for (std::size_t p = 1; p < m; ++p) {
      for (std::size_t k = 1; k < r; ++k) {
        const double a = base * static_cast<double>((p * k) % length);
        plan.twiddles.emplace_back(std::cos(a), std::sin(a));
      }
    }
    length = m;
    stride *= r;
  }
  return plan;
}

// ------------------------------------------------------------ butterflies --
//
// The arithmetic is spelled out on explicit doubles: std::complex
// operator* compiles to a NaN-recovery branch around __muldc3 (Annex G
// semantics), which blocks vectorisation and costs a call on every
// butterfly. Plain real/imag products have no such path. `sign` is -1 for
// the forward transform and +1 for the inverse.

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

// In-place R-point DFT of (re, im), W = exp(sign*2*pi*i/R).
template <int R>
inline void small_dft(double (&re)[R], double (&im)[R], double sign) {
  if constexpr (R == 2) {
    const double r0 = re[0] + re[1], i0 = im[0] + im[1];
    re[1] = re[0] - re[1];
    im[1] = im[0] - im[1];
    re[0] = r0;
    im[0] = i0;
  } else if constexpr (R == 4) {
    const double u0r = re[0] + re[2], u0i = im[0] + im[2];
    const double u1r = re[0] - re[2], u1i = im[0] - im[2];
    const double u2r = re[1] + re[3], u2i = im[1] + im[3];
    const double u3r = re[1] - re[3], u3i = im[1] - im[3];
    // W^1 = (0, sign)
    const double ju3r = -sign * u3i, ju3i = sign * u3r;
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
    double tr[H], ti[H], dr[H], di[H];
    double b0r = re[0], b0i = im[0];
    for (int j = 1; j <= H; ++j) {
      tr[j - 1] = re[j] + re[R - j];
      ti[j - 1] = im[j] + im[R - j];
      dr[j - 1] = re[j] - re[R - j];
      di[j - 1] = im[j] - im[R - j];
      b0r += tr[j - 1];
      b0i += ti[j - 1];
    }
    for (int k = 1; k <= H; ++k) {
      double mr = re[0], mi = im[0], nr = 0.0, ni = 0.0;
      for (int j = 1; j <= H; ++j) {
        // Reduce jk mod R into [1, R/2]: cos is even, sin odd about R/2.
        const int jk = (j * k) % R;
        const bool upper = jk > H;
        const int idx = upper ? R - jk : jk;
        const double c = Roots<R>::c[idx - 1];
        const double s = upper ? -Roots<R>::s[idx - 1] : Roots<R>::s[idx - 1];
        mr += c * tr[j - 1];
        mi += c * ti[j - 1];
        nr += s * dr[j - 1];
        ni += s * di[j - 1];
      }
      nr *= sign;
      ni *= sign;
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
// inputs in[q + span*j], outputs out[q + stride*k], twiddles w[k - 1].
template <int R, bool kTwiddled>
inline void butterflies(std::size_t stride, std::size_t span,
                        const Complex* in, Complex* out, const Complex* w,
                        double sign) {
  for (std::size_t q = 0; q < stride; ++q) {
    double re[R], im[R];
    for (int j = 0; j < R; ++j) {
      re[j] = in[q + span * j].real();
      im[j] = in[q + span * j].imag();
    }
    small_dft<R>(re, im, sign);
    out[q] = Complex(re[0], im[0]);
    for (int k = 1; k < R; ++k) {
      if constexpr (kTwiddled) {
        const double wr = w[k - 1].real(), wi = w[k - 1].imag();
        out[q + stride * k] =
            Complex(re[k] * wr - im[k] * wi, re[k] * wi + im[k] * wr);
      } else {
        out[q + stride * k] = Complex(re[k], im[k]);
      }
    }
  }
}

// One Stockham stage, x -> y (FftPlan::Stage documents the indexing). With
// m = 1 — always the last stage — every butterfly writes the positions it
// read, so x == y is allowed.
template <int R>
void run_stage(const FftPlan::Stage& st, const Complex* tw, double sign,
               const Complex* x, Complex* y) {
  const std::size_t m = st.m;
  const std::size_t stride = st.stride;
  const std::size_t span = stride * m;
  butterflies<R, false>(stride, span, x, y, nullptr, sign);
  for (std::size_t p = 1; p < m; ++p) {
    butterflies<R, true>(stride, span, x + stride * p, y + stride * R * p,
                         tw + (p - 1) * (R - 1), sign);
  }
}

// Every stage, no normalisation. Stages alternate between `data` and
// scratch; the last one (m = 1) runs in place when its input is `data`, so
// the result always lands in `data` without a copy.
void run_stages(const FftPlan& plan, Complex* data) {
  if (plan.stages.empty()) return;
  thread_local std::vector<Complex> scratch;
  if (scratch.size() < plan.n) scratch.resize(plan.n);
  const double sign = plan.inverse ? 1.0 : -1.0;
  const Complex* src = data;
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    const FftPlan::Stage& st = plan.stages[i];
    const bool last = i + 1 == plan.stages.size();
    Complex* dst = last || src != data ? data : scratch.data();
    const Complex* tw = plan.twiddles.data() + st.twiddle_offset;
    switch (st.radix) {
      case 2: run_stage<2>(st, tw, sign, src, dst); break;
      case 3: run_stage<3>(st, tw, sign, src, dst); break;
      case 4: run_stage<4>(st, tw, sign, src, dst); break;
      case 5: run_stage<5>(st, tw, sign, src, dst); break;
      default: run_stage<7>(st, tw, sign, src, dst); break;
    }
    src = dst;
  }
}

// ----------------------------------------------------------------- cache --

// Heap held by a cached plan, for the resident-bytes gauges. A Bluestein
// plan's convolution sub-plans are shared_ptrs into the smooth-length cache
// and are counted there, not here — summing both gauges never double
// counts.
std::uint64_t plan_bytes(const FftPlan& plan) {
  return plan.twiddles.capacity() * sizeof(Complex) +
         plan.stages.capacity() * sizeof(FftPlan::Stage);
}

std::uint64_t plan_bytes(const BluesteinPlan& plan) {
  return plan.chirp.capacity() * sizeof(Complex) +
         plan.kernel.capacity() * sizeof(Complex);
}

// One cache per plan kind, keyed by (n, inverse).
using SmoothCache = obs::LruCache<std::pair<std::size_t, bool>, FftPlan>;
using BluesteinCache =
    obs::LruCache<std::pair<std::size_t, bool>, BluesteinPlan>;

SmoothCache& fft_plan_cache() {
  static SmoothCache cache("fft_plan_cache", plan_bytes);
  return cache;
}

BluesteinCache& bluestein_plan_cache() {
  static BluesteinCache cache("bluestein_plan_cache", plan_bytes);
  return cache;
}

BluesteinPlan make_bluestein_plan(std::size_t n, bool inverse) {
  DECAM_REQUIRE(n >= 2, "bluestein plan needs n >= 2");
  BluesteinPlan plan;
  plan.n = n;
  plan.inverse = inverse;
  const double sign = inverse ? 1.0 : -1.0;
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids catastrophic precision loss for large k.
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
    plan.chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.m = 2 * n - 1;
  while (!is_smooth(plan.m)) ++plan.m;
  plan.conv_forward = get_fft_plan(plan.m, false);
  plan.conv_inverse = get_fft_plan(plan.m, true);
  plan.kernel.assign(plan.m, Complex(0, 0));
  plan.kernel[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan.kernel[k] = plan.kernel[plan.m - k] = std::conj(plan.chirp[k]);
  }
  // Stored transformed with the convolution's 1/m folded in, so the
  // per-call inverse transform needs no normalisation pass.
  run_stages(*plan.conv_forward, plan.kernel.data());
  const double inv_m = 1.0 / static_cast<double>(plan.m);
  for (Complex& v : plan.kernel) v *= inv_m;
  return plan;
}

}  // namespace

std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n, bool inverse) {
  return fft_plan_cache().get({n, inverse},
                              [&] { return make_fft_plan(n, inverse); });
}

std::shared_ptr<const BluesteinPlan> get_bluestein_plan(std::size_t n,
                                                        bool inverse) {
  return bluestein_plan_cache().get(
      {n, inverse}, [&] { return make_bluestein_plan(n, inverse); });
}

FftPlanCacheStats fft_plan_cache_stats() { return fft_plan_cache().stats(); }

FftPlanCacheStats bluestein_plan_cache_stats() {
  return bluestein_plan_cache().stats();
}

void clear_fft_plan_caches() {
  fft_plan_cache().clear();
  bluestein_plan_cache().clear();
}

void fft_exec(const FftPlan& plan, Complex* data) {
  run_stages(plan, data);
  if (plan.inverse) {
    const double inv_n = 1.0 / static_cast<double>(plan.n);
    for (std::size_t i = 0; i < plan.n; ++i) data[i] *= inv_n;
  }
}

void bluestein_exec(const BluesteinPlan& plan, Complex* data) {
  const std::size_t n = plan.n;
  const std::size_t m = plan.m;
  // Grow-only per-thread scratch: one live convolution per thread, reused
  // across every call (the old implementation allocated m complexes per
  // transform — per image row/column).
  thread_local std::vector<Complex> scratch;
  if (scratch.size() < m) scratch.resize(m);
  Complex* x = scratch.data();
  const Complex* chirp = plan.chirp.data();
  // Explicit real/imag products for the same __muldc3 reason as the
  // butterfly kernels above.
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = data[k].real(), ai = data[k].imag();
    const double cr = chirp[k].real(), ci = chirp[k].imag();
    x[k] = Complex(ar * cr - ai * ci, ar * ci + ai * cr);
  }
  std::fill(x + n, x + m, Complex(0, 0));
  run_stages(*plan.conv_forward, x);
  const Complex* kernel = plan.kernel.data();
  for (std::size_t k = 0; k < m; ++k) {
    const double ar = x[k].real(), ai = x[k].imag();
    const double kr = kernel[k].real(), ki = kernel[k].imag();
    x[k] = Complex(ar * kr - ai * ki, ar * ki + ai * kr);
  }
  run_stages(*plan.conv_inverse, x);  // 1/m lives in the kernel
  const double scale =
      plan.inverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = x[k].real(), ai = x[k].imag();
    const double cr = chirp[k].real(), ci = chirp[k].imag();
    data[k] = Complex(scale * (ar * cr - ai * ci),
                      scale * (ar * ci + ai * cr));
  }
}

PlannedFft::PlannedFft(std::size_t n, bool inverse) : n_(n) {
  DECAM_REQUIRE(n >= 1, "fft of empty signal");
  if (n == 1) return;
  if (is_smooth(n)) {
    smooth_ = get_fft_plan(n, inverse);
  } else {
    bluestein_ = get_bluestein_plan(n, inverse);
  }
}

void PlannedFft::operator()(Complex* data) const {
  if (smooth_) {
    fft_exec(*smooth_, data);
  } else if (bluestein_) {
    bluestein_exec(*bluestein_, data);
  }
}

}  // namespace decam
