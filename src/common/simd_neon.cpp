// NEON (aarch64) variant of the SIMD kernel table. Only compiled on
// aarch64, where NEON with float64x2 arithmetic is baseline.
//
// Same bit-parity contract as the AVX2 table: explicit vmulq/vaddq pairs,
// never vfmaq, and the TU is compiled with -ffp-contract=off. aarch64 would
// otherwise contract multiply-adds into FMAs and diverge from the scalar
// table.
#include "common/simd_kernels.h"

#ifdef DECAM_SIMD_HAVE_NEON

#include <arm_neon.h>

namespace decam::simd::detail {
namespace {

void hist_add_u16(std::uint16_t* dst, const std::uint16_t* add, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_u16(dst + i, vaddq_u16(vld1q_u16(dst + i), vld1q_u16(add + i)));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint16_t>(dst[i] + add[i]);
}

// Widen two float lanes to a float64x2.
inline float64x2_t widen(const float* p) {
  return vcvt_f64_f32(vld1_f32(p));
}

void weighted_assign_f32(float* out, const float* in, double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1_f32(out + i, vcvt_f32_f64(vmulq_f64(wv, widen(in + i))));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(w * static_cast<double>(in[i]));
  }
}

void weighted_init_f64(double* acc, const float* in, double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(acc + i, vmulq_f64(wv, widen(in + i)));
  }
  for (; i < n; ++i) acc[i] = w * static_cast<double>(in[i]);
}

void weighted_add_f64(double* acc, const float* in, double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p = vmulq_f64(wv, widen(in + i));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), p));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    acc[i] += p;
  }
}

void weighted_finish_f32(float* out, const double* acc, const float* in,
                         double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p = vmulq_f64(wv, widen(in + i));
    vst1_f32(out + i, vcvt_f32_f64(vaddq_f64(vld1q_f64(acc + i), p)));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    out[i] = static_cast<float>(acc[i] + p);
  }
}

void tap_accumulate_f32(double* acc, const float* in, float kw, int n) {
  const float32x2_t kwv = vdup_n_f32(kw);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    // Float product first (imaging/filter.h contract), then widen and add.
    const float32x2_t p = vmul_f32(kwv, vld1_f32(in + i));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vcvt_f64_f32(p)));
  }
  for (; i < n; ++i) {
    const float p = kw * in[i];
    acc[i] += static_cast<double>(p);
  }
}

void narrow_f64_f32(float* out, const double* acc, int n) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1_f32(out + i, vcvt_f32_f64(vld1q_f64(acc + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

// Same register blocking as the AVX2 table: a block of four pixels is two
// float64x2 halves per stat, ten accumulators plus the eleven broadcast
// weights, which fits the 32 vector registers of aarch64.
double pair_stats_hpass(double* ring_row, double* prod, const float* a,
                        const float* b, const double* win, int n,
                        double sq_sum) {
  constexpr int kRadius = kPairTaps / 2;
  const int pw = pair_products_width(n);
  fill_pair_products(prod, a, b, n, pw);
  float64x2_t w[kPairTaps];
  for (int t = 0; t < kPairTaps; ++t) w[t] = vdupq_n_f64(win[t]);
  const int blocks = pair_blocks(n);
  for (int k = 0; k < blocks; ++k) {
    const double* p = prod + k * kPairLanes;
    float64x2_t lo[kPairStats];
    float64x2_t hi[kPairStats];
    for (int s = 0; s < kPairStats; ++s) {
      lo[s] = vdupq_n_f64(0.0);
      hi[s] = vdupq_n_f64(0.0);
    }
    for (int t = 0; t < kPairTaps; ++t) {
      for (int s = 0; s < kPairStats; ++s) {
        const double* x = p + s * pw + t;
        lo[s] = vaddq_f64(lo[s], vmulq_f64(w[t], vld1q_f64(x)));
        hi[s] = vaddq_f64(hi[s], vmulq_f64(w[t], vld1q_f64(x + 2)));
      }
    }
    double* out = ring_row + k * kPairBlock;
    for (int s = 0; s < kPairStats; ++s) {
      vst1q_f64(out + s * kPairLanes, lo[s]);
      vst1q_f64(out + s * kPairLanes + 2, hi[s]);
    }
    const double* da = p + kRadius;
    const double* db = p + pw + kRadius;
    const float64x2_t d_lo = vsubq_f64(vld1q_f64(da), vld1q_f64(db));
    const float64x2_t d_hi = vsubq_f64(vld1q_f64(da + 2), vld1q_f64(db + 2));
    double sq[kPairLanes];
    vst1q_f64(sq, vmulq_f64(d_lo, d_lo));
    vst1q_f64(sq + 2, vmulq_f64(d_hi, d_hi));
    const int lanes = std::min(kPairLanes, n - k * kPairLanes);
    for (int l = 0; l < lanes; ++l) sq_sum += sq[l];
  }
  return sq_sum;
}

// The SSIM map of two pixels, in the order of the common/simd.h contract.
inline float64x2_t ssim_map(float64x2_t mu_a, float64x2_t mu_b,
                            float64x2_t m_aa, float64x2_t m_bb,
                            float64x2_t m_ab, float64x2_t c1v,
                            float64x2_t c2v) {
  const float64x2_t two = vdupq_n_f64(2.0);
  const float64x2_t mu_aa = vmulq_f64(mu_a, mu_a);
  const float64x2_t mu_bb = vmulq_f64(mu_b, mu_b);
  const float64x2_t va = vsubq_f64(m_aa, mu_aa);
  const float64x2_t vb = vsubq_f64(m_bb, mu_bb);
  const float64x2_t cov = vsubq_f64(m_ab, vmulq_f64(mu_a, mu_b));
  const float64x2_t num =
      vmulq_f64(vaddq_f64(vmulq_f64(vmulq_f64(two, mu_a), mu_b), c1v),
                vaddq_f64(vmulq_f64(two, cov), c2v));
  const float64x2_t den =
      vmulq_f64(vaddq_f64(vaddq_f64(mu_aa, mu_bb), c1v),
                vaddq_f64(vaddq_f64(va, vb), c2v));
  return vdivq_f64(num, den);
}

double pair_stats_vpass(const double* const* rows, const double* win,
                        double c1, double c2, int n, double total) {
  float64x2_t w[kPairTaps];
  for (int t = 0; t < kPairTaps; ++t) w[t] = vdupq_n_f64(win[t]);
  const float64x2_t c1v = vdupq_n_f64(c1);
  const float64x2_t c2v = vdupq_n_f64(c2);
  const int blocks = pair_blocks(n);
  for (int k = 0; k < blocks; ++k) {
    const int off = k * kPairBlock;
    float64x2_t lo[kPairStats];
    float64x2_t hi[kPairStats];
    for (int s = 0; s < kPairStats; ++s) {
      lo[s] = vdupq_n_f64(0.0);
      hi[s] = vdupq_n_f64(0.0);
    }
    for (int t = 0; t < kPairTaps; ++t) {
      const double* r = rows[t] + off;
      for (int s = 0; s < kPairStats; ++s) {
        const double* x = r + s * kPairLanes;
        lo[s] = vaddq_f64(lo[s], vmulq_f64(w[t], vld1q_f64(x)));
        hi[s] = vaddq_f64(hi[s], vmulq_f64(w[t], vld1q_f64(x + 2)));
      }
    }
    double map[kPairLanes];
    vst1q_f64(map, ssim_map(lo[0], lo[1], lo[2], lo[3], lo[4], c1v, c2v));
    vst1q_f64(map + 2,
              ssim_map(hi[0], hi[1], hi[2], hi[3], hi[4], c1v, c2v));
    const int lanes = std::min(kPairLanes, n - k * kPairLanes);
    for (int l = 0; l < lanes; ++l) total += map[l];
  }
  return total;
}

}  // namespace

const SimdOps& neon_ops() {
  static const SimdOps ops = {
      "neon", hist_add_u16,
      weighted_assign_f32, weighted_init_f64, weighted_add_f64,
      weighted_finish_f32, tap_accumulate_f32, narrow_f64_f32,
      pair_stats_hpass, pair_stats_vpass,
  };
  return ops;
}

}  // namespace decam::simd::detail

#endif  // DECAM_SIMD_HAVE_NEON
