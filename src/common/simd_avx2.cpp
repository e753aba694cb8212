// AVX2 variant of the SIMD kernel table. Only compiled on x86-64 (the
// dispatcher additionally checks cpuid before selecting it).
//
// Bit-parity with the scalar table is part of the contract (common/simd.h):
// every lane performs exactly the scalar sequence — note the explicit
// _mm256_mul_pd / _mm256_add_pd pairs instead of FMA, and the float
// multiply before widening in tap_accumulate_f32. The TU is compiled with
// -ffp-contract=off so the compiler cannot re-fuse what we deliberately
// keep separate.
#include "common/simd_kernels.h"

#ifdef DECAM_SIMD_HAVE_AVX2

#include <immintrin.h>

namespace decam::simd::detail {
namespace {

void hist_add_u16(std::uint16_t* dst, const std::uint16_t* add, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(add + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi16(d, a));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint16_t>(dst[i] + add[i]);
}

void weighted_assign_f32(float* out, const float* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(wv, v)));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(w * static_cast<double>(in[i]));
  }
}

void weighted_init_f64(double* acc, const float* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    _mm256_storeu_pd(acc + i, _mm256_mul_pd(wv, v));
  }
  for (; i < n; ++i) acc[i] = w * static_cast<double>(in[i]);
}

void weighted_add_f64(double* acc, const float* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a, _mm256_mul_pd(wv, v)));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    acc[i] += p;
  }
}

void weighted_finish_f32(float* out, const double* acc, const float* in,
                         double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm_storeu_ps(out + i,
                  _mm256_cvtpd_ps(_mm256_add_pd(a, _mm256_mul_pd(wv, v))));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    out[i] = static_cast<float>(acc[i] + p);
  }
}

void tap_accumulate_f32(double* acc, const float* in, float kw, int n) {
  const __m128 kwv = _mm_set1_ps(kw);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    // Float product first — the imaging/filter.h accumulator contract —
    // then widen and add in double.
    const __m128 p = _mm_mul_ps(kwv, _mm_loadu_ps(in + i));
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a, _mm256_cvtps_pd(p)));
  }
  for (; i < n; ++i) {
    const float p = kw * in[i];
    acc[i] += static_cast<double>(p);
  }
}

void narrow_f64_f32(float* out, const double* acc, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

// Window sums stay in registers: one accumulator per stat for a block of
// four pixels, the eleven weights broadcast once per row, each sum stored
// once. The unaligned products loads of the last block end exactly at the
// products row's padded end (common/simd.h sizes it for them). The block's
// squared differences join the sequential MSE sum inside the same loop, so
// that latency chain overlaps the window arithmetic.
double pair_stats_hpass(double* ring_row, double* prod, const float* a,
                        const float* b, const double* win, int n,
                        double sq_sum) {
  constexpr int kRadius = kPairTaps / 2;
  const int pw = pair_products_width(n);
  fill_pair_products(prod, a, b, n, pw);
  __m256d w[kPairTaps];
  for (int t = 0; t < kPairTaps; ++t) w[t] = _mm256_broadcast_sd(win + t);
  const int blocks = pair_blocks(n);
  for (int k = 0; k < blocks; ++k) {
    const double* p = prod + k * kPairLanes;
    __m256d acc[kPairStats];
    for (__m256d& v : acc) v = _mm256_setzero_pd();
    for (int t = 0; t < kPairTaps; ++t) {
      for (int s = 0; s < kPairStats; ++s) {
        const __m256d x = _mm256_loadu_pd(p + s * pw + t);
        acc[s] = _mm256_add_pd(acc[s], _mm256_mul_pd(w[t], x));
      }
    }
    double* out = ring_row + k * kPairBlock;
    for (int s = 0; s < kPairStats; ++s) {
      _mm256_storeu_pd(out + s * kPairLanes, acc[s]);
    }
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(p + kRadius),
                                    _mm256_loadu_pd(p + pw + kRadius));
    alignas(32) double sq[kPairLanes];
    _mm256_store_pd(sq, _mm256_mul_pd(d, d));
    const int lanes = std::min(kPairLanes, n - k * kPairLanes);
    for (int l = 0; l < lanes; ++l) sq_sum += sq[l];
  }
  return sq_sum;
}

// Vertical sums of one block in registers, then the SSIM map of its four
// pixels in the same registers; only the map values leave, one scalar add
// each so the row-major sum keeps its order.
double pair_stats_vpass(const double* const* rows, const double* win,
                        double c1, double c2, int n, double total) {
  __m256d w[kPairTaps];
  for (int t = 0; t < kPairTaps; ++t) w[t] = _mm256_broadcast_sd(win + t);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d c1v = _mm256_set1_pd(c1);
  const __m256d c2v = _mm256_set1_pd(c2);
  const int blocks = pair_blocks(n);
  for (int k = 0; k < blocks; ++k) {
    const int off = k * kPairBlock;
    __m256d acc[kPairStats];
    for (__m256d& v : acc) v = _mm256_setzero_pd();
    for (int t = 0; t < kPairTaps; ++t) {
      const double* r = rows[t] + off;
      for (int s = 0; s < kPairStats; ++s) {
        const __m256d x = _mm256_loadu_pd(r + s * kPairLanes);
        acc[s] = _mm256_add_pd(acc[s], _mm256_mul_pd(w[t], x));
      }
    }
    const __m256d mu_a = acc[0];
    const __m256d mu_b = acc[1];
    const __m256d mu_aa = _mm256_mul_pd(mu_a, mu_a);
    const __m256d mu_bb = _mm256_mul_pd(mu_b, mu_b);
    const __m256d mu_ab = _mm256_mul_pd(mu_a, mu_b);
    const __m256d va = _mm256_sub_pd(acc[2], mu_aa);
    const __m256d vb = _mm256_sub_pd(acc[3], mu_bb);
    const __m256d cov = _mm256_sub_pd(acc[4], mu_ab);
    const __m256d num = _mm256_mul_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(two, mu_a), mu_b), c1v),
        _mm256_add_pd(_mm256_mul_pd(two, cov), c2v));
    const __m256d den = _mm256_mul_pd(
        _mm256_add_pd(_mm256_add_pd(mu_aa, mu_bb), c1v),
        _mm256_add_pd(_mm256_add_pd(va, vb), c2v));
    alignas(32) double map[kPairLanes];
    _mm256_store_pd(map, _mm256_div_pd(num, den));
    const int lanes = std::min(kPairLanes, n - k * kPairLanes);
    for (int l = 0; l < lanes; ++l) total += map[l];
  }
  return total;
}

}  // namespace

const SimdOps& avx2_ops() {
  static const SimdOps ops = {
      "avx2", hist_add_u16,
      weighted_assign_f32, weighted_init_f64, weighted_add_f64,
      weighted_finish_f32, tap_accumulate_f32, narrow_f64_f32,
      pair_stats_hpass, pair_stats_vpass,
  };
  return ops;
}

}  // namespace decam::simd::detail

#endif  // DECAM_SIMD_HAVE_AVX2
