// Internal: the per-ISA kernel tables linked into decam_simd. Whether the
// AVX2 and AVX-512 tables exist is decided at configure time
// (src/CMakeLists.txt adds their translation units on x86-64 only) and
// communicated with the DECAM_SIMD_HAVE_X86 definition; the dispatcher
// (simd.cpp) only references tables that were actually compiled.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/simd.h"

namespace decam::simd::detail {

namespace {

// One strip of pair_stats_hpass's products (common/simd.h): samples
// j0 .. j0 + count - 1 of the row's product runs, stored stat-major from
// prod[s * kPairStripSamples + j - j0], each at most kPairStripSamples
// long. Internal linkage on purpose: every per-ISA TU compiles its own copy
// with its own instruction set, where one inline definition shared across
// TUs could hand the AVX2 build of it to the scalar table. A strip whose
// samples all lie inside the row (every strip but the first and the last)
// reads a and b straight, a loop the AVX2 TU vectorises; the ends clamp.
constexpr int kPairStripSamples = kPairStrip + kPairTaps - 1;

inline void fill_pair_strip(double* prod, const float* a, const float* b,
                            int n, int j0, int count) {
  constexpr int kRadius = kPairTaps / 2;
  constexpr int kRun = kPairStripSamples;
  const auto put = [&](int j, float fa, float fb) {
    const double da = static_cast<double>(fa);
    const double db = static_cast<double>(fb);
    prod[j] = da;
    prod[kRun + j] = db;
    prod[2 * kRun + j] = da * da;
    prod[3 * kRun + j] = db * db;
    prod[4 * kRun + j] = da * db;
  };
  const int x0 = j0 - kRadius;  // the source column of sample j0
  if (x0 >= 0 && x0 + count <= n) {
    for (int j = 0; j < count; ++j) put(j, a[x0 + j], b[x0 + j]);
  } else {
    for (int j = 0; j < count; ++j) {
      const int x = std::clamp(x0 + j, 0, n - 1);
      put(j, a[x], b[x]);
    }
  }
}

// The pair-stats walk's two passes (common/simd.h) on one vector type V of
// L doubles, written once for the AVX2 (L = 4) and AVX-512 (L = 8) tables:
// V is a GCC vector, whose elementwise +, -, * and / compile to the
// table's vaddpd, vsubpd, vmulpd and vdivpd — never a fused multiply-add,
// since every table's TU is compiled with -ffp-contract=off. The scalar
// table keeps its own loops (each window sum's taps innermost).
template <class V>
V load_lanes(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
void store_lanes(double* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

template <class V>
V broadcast_lanes(double x) {
  V v;
  for (std::size_t l = 0; l < sizeof v / sizeof x; ++l) v[l] = x;
  return v;
}

// Window sums stay in registers: one accumulator per stat for a block of L
// pixels, the eleven weights broadcast once per row, each sum stored once.
// The products are formed one strip of kPairStrip pixels at a time into a
// buffer that stays in L1 (its interior strips convert with vector
// loads); a block's unaligned products loads end inside its strip. The
// block's squared differences join the sequential MSE sum inside the same
// loop, so that latency chain overlaps the window arithmetic.
template <class V>
double pair_stats_hpass_lanes(double* ring_row, const float* a,
                              const float* b, const double* win, int n,
                              double sq_sum) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  constexpr int kStripBlocks = kPairStrip / kLanes;
  constexpr int kRadius = kPairTaps / 2;
  alignas(64) double prod[kPairStats * kPairStripSamples];
  V w[kPairTaps];
  for (int t = 0; t < kPairTaps; ++t) w[t] = broadcast_lanes<V>(win[t]);
  const int blocks = pair_blocks(n, kLanes);
  for (int k0 = 0; k0 < blocks; k0 += kStripBlocks) {
    const int strip = std::min(kStripBlocks, blocks - k0);
    fill_pair_strip(prod, a, b, n, k0 * kLanes,
                    strip * kLanes + kPairTaps - 1);
    for (int k = 0; k < strip; ++k) {
      const double* p = prod + k * kLanes;
      V acc[kPairStats] = {};
      for (int t = 0; t < kPairTaps; ++t) {
        for (int s = 0; s < kPairStats; ++s) {
          const V x = load_lanes<V>(p + s * kPairStripSamples + t);
          acc[s] = acc[s] + w[t] * x;
        }
      }
      double* out = ring_row + (k0 + k) * kPairStats * kLanes;
      for (int s = 0; s < kPairStats; ++s) {
        store_lanes(out + s * kLanes, acc[s]);
      }
      const V d = load_lanes<V>(p + kRadius) -
                  load_lanes<V>(p + kPairStripSamples + kRadius);
      alignas(64) double sq[kLanes];
      store_lanes(sq, d * d);
      const int lanes = std::min(kLanes, n - (k0 + k) * kLanes);
      for (int l = 0; l < lanes; ++l) sq_sum += sq[l];
    }
  }
  return sq_sum;
}

// Vertical sums of one block in registers, then the SSIM map of its L
// pixels in the same registers; only the map values leave, one scalar add
// each so the row-major sum keeps its order.
template <class V>
double pair_stats_vpass_lanes(const double* const* rows, const double* win,
                              double c1, double c2, int n, double total) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  V w[kPairTaps];
  for (int t = 0; t < kPairTaps; ++t) w[t] = broadcast_lanes<V>(win[t]);
  const V two = broadcast_lanes<V>(2.0);
  const V c1v = broadcast_lanes<V>(c1);
  const V c2v = broadcast_lanes<V>(c2);
  const int blocks = pair_blocks(n, kLanes);
  for (int k = 0; k < blocks; ++k) {
    const int off = k * kPairStats * kLanes;
    V acc[kPairStats] = {};
    for (int t = 0; t < kPairTaps; ++t) {
      const double* r = rows[t] + off;
      for (int s = 0; s < kPairStats; ++s) {
        acc[s] = acc[s] + w[t] * load_lanes<V>(r + s * kLanes);
      }
    }
    const V mu_a = acc[0];
    const V mu_b = acc[1];
    const V mu_aa = mu_a * mu_a;
    const V mu_bb = mu_b * mu_b;
    const V mu_ab = mu_a * mu_b;
    const V va = acc[2] - mu_aa;
    const V vb = acc[3] - mu_bb;
    const V cov = acc[4] - mu_ab;
    const V num = (two * mu_a * mu_b + c1v) * (two * cov + c2v);
    const V den = (mu_aa + mu_bb + c1v) * (va + vb + c2v);
    alignas(64) double map[kLanes];
    store_lanes(map, num / den);
    const int lanes = std::min(kLanes, n - k * kLanes);
    for (int l = 0; l < lanes; ++l) total += map[l];
  }
  return total;
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

// grid8_u8 (common/simd.h): one branch-free pass of compares and byte
// stores, so each TU's copy vectorises. The grid test
// (x + 2^23) - 2^23 == x needs no int cast: for 0 <= x <= 2^23 the add
// rounds x to an integer and the subtract is exact, and every compare is
// false for NaN. The lower bound keeps -1 from landing on byte 255. `on8`
// is an int, not a bool: GCC vectorises only the int reduction.
inline bool grid8_u8_body(std::uint8_t* dst, const float* src, int n) {
  constexpr float kRound = 8388608.0f;  // 2^23
  int on8 = 1;
  for (int i = 0; i < n; ++i) {
    const float v = src[i];
    const float r = v + kRound;
    on8 &= (v >= 0.0f) & (v <= 255.0f) & (r - kRound == v);
    dst[i] = static_cast<std::uint8_t>(std::bit_cast<std::uint32_t>(r));
  }
  return on8 != 0;
}

// Byte min/max by value: with std::min/std::max's references GCC
// vectorises the network below into compare-and-blend sequences instead of
// pminub/pmaxub.
inline std::uint8_t min_u8(std::uint8_t a, std::uint8_t b) {
  return b < a ? b : a;
}
inline std::uint8_t max_u8(std::uint8_t a, std::uint8_t b) {
  return a < b ? b : a;
}
inline std::uint8_t med3_u8(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return max_u8(min_u8(a, b), min_u8(max_u8(a, b), c));
}

// One column of the 3x3 window, sorted: lo <= mid <= hi.
struct SortedColumn {
  std::uint8_t lo, mid, hi;
};

inline SortedColumn sort_column(std::uint8_t p, std::uint8_t q,
                                std::uint8_t r) {
  const std::uint8_t a = min_u8(p, q);
  const std::uint8_t b = max_u8(p, q);
  return {min_u8(a, r), max_u8(a, min_u8(b, r)), max_u8(b, r)};
}

inline float median9(SortedColumn c0, SortedColumn c1, SortedColumn c2) {
  const std::uint8_t max_lo = max_u8(max_u8(c0.lo, c1.lo), c2.lo);
  const std::uint8_t min_hi = min_u8(min_u8(c0.hi, c1.hi), c2.hi);
  return static_cast<float>(
      med3_u8(max_lo, med3_u8(c0.mid, c1.mid, c2.mid), min_hi));
}

// median3_u8 (common/simd.h), in chunks of kMedianChunk outputs: the
// chunk's columns and the two after it (clamped to the row) are sorted
// once into lo/mid/hi on the stack, then each output combines three
// neighbouring sorts. Both loops are plain byte min/max over arrays, which
// each TU's copy vectorises (pminub/pmaxub); sorting every output's three
// columns afresh instead costs 30 byte min/max per output rather than 18,
// and ran 1.4x slower on the AVX2 table.
constexpr int kMedianChunk = 256;

inline void median3_u8_body(float* out, const std::uint8_t* r0,
                            const std::uint8_t* r1, const std::uint8_t* r2,
                            int n) {
  std::uint8_t lo[kMedianChunk + 2];
  std::uint8_t mid[kMedianChunk + 2];
  std::uint8_t hi[kMedianChunk + 2];
  for (int x0 = 0; x0 < n; x0 += kMedianChunk) {
    const int m = std::min(kMedianChunk, n - x0);
    const int cols = std::min(m + 2, n - x0);
    for (int i = 0; i < cols; ++i) {
      const SortedColumn c = sort_column(r0[x0 + i], r1[x0 + i], r2[x0 + i]);
      lo[i] = c.lo;
      mid[i] = c.mid;
      hi[i] = c.hi;
    }
    for (int i = cols; i < m + 2; ++i) {  // columns past the right edge
      lo[i] = lo[cols - 1];
      mid[i] = mid[cols - 1];
      hi[i] = hi[cols - 1];
    }
    for (int i = 0; i < m; ++i) {
      out[x0 + i] = median9({lo[i], mid[i], hi[i]},
                            {lo[i + 1], mid[i + 1], hi[i + 1]},
                            {lo[i + 2], mid[i + 2], hi[i + 2]});
    }
  }
}

}  // namespace

/// Portable fallback, compiled with -ffp-contract=off so its arithmetic is
/// the exact elementwise sequence of the SimdOps contract on every host.
const SimdOps& scalar_ops();

#ifdef DECAM_SIMD_HAVE_X86
/// AVX2 table (x86-64 only; callers must verify cpu support first).
const SimdOps& avx2_ops();
/// AVX-512 table: the AVX2 table's entries but for the pair-stats walk,
/// which runs on blocks of eight pixels (x86-64 only; callers must verify
/// cpu support for both first).
const SimdOps& avx512_ops();
#endif

}  // namespace decam::simd::detail
