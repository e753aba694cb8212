// Internal: the per-ISA kernel tables linked into decam_simd. Whether the
// AVX2 table exists is decided at configure time (src/CMakeLists.txt adds
// its translation unit on x86-64 only) and communicated with the
// DECAM_SIMD_HAVE_AVX2 definition; the dispatcher (simd.cpp) only
// references tables that were actually compiled.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/simd.h"

namespace decam::simd::detail {

namespace {

// The products row of pair_stats_hpass (common/simd.h), pw doubles per
// plane. Internal linkage on purpose: every per-ISA TU compiles its own
// copy with its own instruction set, where one inline definition shared
// across TUs could hand the AVX2 build of it to the scalar table.
inline void fill_pair_products(double* prod, const float* a, const float* b,
                               int n, int pw) {
  if (n == 0) return;
  constexpr int kRadius = kPairTaps / 2;
  double* pa = prod;
  double* pb = pa + pw;
  double* paa = pb + pw;
  double* pbb = paa + pw;
  double* pab = pbb + pw;
  const auto put = [&](int j, float fa, float fb) {
    const double da = static_cast<double>(fa);
    const double db = static_cast<double>(fb);
    pa[j] = da;
    pb[j] = db;
    paa[j] = da * da;
    pbb[j] = db * db;
    pab[j] = da * db;
  };
  for (int j = 0; j < kRadius; ++j) put(j, a[0], b[0]);
  for (int x = 0; x < n; ++x) put(kRadius + x, a[x], b[x]);
  for (int j = kRadius + n; j < pw; ++j) put(j, a[n - 1], b[n - 1]);
}

// The bias of the exponent split in log_ge1: the bits of sqrt(1/2).
constexpr std::uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDULL;
constexpr double kLn2 = 0.6931471805599453;

// log(u) for u >= 1, accurate to ~1e-12 absolute — a branch-free
// exponent/mantissa split plus a short atanh series (log_magnitudes in
// common/simd.h). Subtracting the bits of sqrt(1/2) before the shift lands
// the mantissa f in [sqrt(1/2), sqrt(2)), which caps |r| = |f-1|/|f+1| at
// 0.1716; the omitted series tail 2 r^15 / 15 is then < 5e-13. The
// numerical-tolerance policy in DESIGN.md §10 covers this: spectrum values
// are thresholded with k-sigma margins, so 1e-12 absolute noise is far
// below anything the detector can see.
inline double log_ge1(double u) {
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
  return static_cast<double>(e) * kLn2 + 2.0 * r * poly;
}

// log(1 + |v|) of one complex bin, without the hypot overflow dance of
// std::abs(complex): magnitudes are bounded by 255 * w * h, nowhere near
// double overflow.
inline double log_magnitude(double re, double im) {
  return log_ge1(1.0 + std::sqrt(re * re + im * im));
}

// The scalar loop of log_magnitudes: every table's tail, and the whole of
// the scalar table's.
inline void log_magnitudes_tail(double* out, const double* re,
                                const double* im, int n, double& lo,
                                double& hi) {
  for (int i = 0; i < n; ++i) {
    const double v = log_magnitude(re[i], im[i]);
    out[i] = v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
}

// deinterleave_u8 (common/simd.h). The one- and three-channel loops have a
// fixed stride, so the AVX2 TU's copy vectorises; any other channel count
// takes the strided loop.
inline void deinterleave_u8_body(float* const* dst, const std::uint8_t* src,
                                 int channels, int n) {
  if (channels == 1) {
    float* const d0 = dst[0];
    for (int i = 0; i < n; ++i) d0[i] = src[i];
  } else if (channels == 3) {
    float* const d0 = dst[0];
    float* const d1 = dst[1];
    float* const d2 = dst[2];
    for (int i = 0; i < n; ++i) {
      d0[i] = src[3 * i];
      d1[i] = src[3 * i + 1];
      d2[i] = src[3 * i + 2];
    }
  } else {
    for (int c = 0; c < channels; ++c) {
      float* const d = dst[c];
      for (int i = 0; i < n; ++i) d[i] = src[i * channels + c];
    }
  }
}

}  // namespace

/// Portable fallback, compiled with -ffp-contract=off so its arithmetic is
/// the exact elementwise sequence of the SimdOps contract on every host.
const SimdOps& scalar_ops();

#ifdef DECAM_SIMD_HAVE_AVX2
/// AVX2 table (x86-64 only; callers must verify cpu support first).
const SimdOps& avx2_ops();
#endif

}  // namespace decam::simd::detail
