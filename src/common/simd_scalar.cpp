// Scalar reference variant of the SIMD kernel table. Compiled with
// -ffp-contract=off (src/CMakeLists.txt): the loops below are the
// normative elementwise sequences of common/simd.h, and no compiler may
// fuse a multiply-add into an FMA here — that would change roundings and
// break bit-parity with the vector variants, which use explicit
// multiply/add instructions for the same reason.
#include "common/simd_kernels.h"

namespace decam::simd::detail {
namespace {

void hist_add_u16(std::uint16_t* dst, const std::uint16_t* add, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(dst[i] + add[i]);
  }
}

void weighted_assign_f32(float* out, const float* in, double w, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<float>(w * static_cast<double>(in[i]));
  }
}

void weighted_init_f64(double* acc, const float* in, double w, int n) {
  for (int i = 0; i < n; ++i) acc[i] = w * static_cast<double>(in[i]);
}

void weighted_add_f64(double* acc, const float* in, double w, int n) {
  for (int i = 0; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    acc[i] += p;
  }
}

void weighted_finish_f32(float* out, const double* acc, const float* in,
                         double w, int n) {
  for (int i = 0; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    out[i] = static_cast<float>(acc[i] + p);
  }
}

void tap_accumulate_f32(double* acc, const float* in, float kw, int n) {
  for (int i = 0; i < n; ++i) {
    const float p = kw * in[i];  // float product (imaging/filter.h contract)
    acc[i] += static_cast<double>(p);
  }
}

void narrow_f64_f32(float* out, const double* acc, int n) {
  for (int i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

// Both passes run each window sum's taps innermost, so the compiler keeps
// the sum in a register; tap-outer sweeps over a block's twenty sums
// compiled to memory round trips and ran at half the speed.
double pair_stats_hpass(double* ring_row, double* prod, const float* a,
                        const float* b, const double* win, int n,
                        double sq_sum) {
  const int pw = pair_products_width(n);
  fill_pair_products(prod, a, b, n, pw);
  for (int k = 0; k < pair_blocks(n); ++k) {
    double* out = ring_row + k * kPairBlock;
    for (int s = 0; s < kPairStats; ++s) {
      for (int l = 0; l < kPairLanes; ++l) {
        const double* p = prod + s * pw + k * kPairLanes + l;
        double acc = 0.0;
        for (int t = 0; t < kPairTaps; ++t) {
          const double v = win[t] * p[t];
          acc += v;
        }
        out[s * kPairLanes + l] = acc;
      }
    }
  }
  for (int x = 0; x < n; ++x) {
    const double d = static_cast<double>(a[x]) - static_cast<double>(b[x]);
    sq_sum += d * d;
  }
  return sq_sum;
}

double pair_stats_vpass(const double* const* rows, const double* win,
                        double c1, double c2, int n, double total) {
  for (int k = 0; k < pair_blocks(n); ++k) {
    double sums[kPairBlock];
    for (int j = 0; j < kPairBlock; ++j) {
      double acc = 0.0;
      for (int t = 0; t < kPairTaps; ++t) {
        const double v = win[t] * rows[t][k * kPairBlock + j];
        acc += v;
      }
      sums[j] = acc;
    }
    const int lanes = std::min(kPairLanes, n - k * kPairLanes);
    for (int l = 0; l < lanes; ++l) {
      const double mu_a = sums[l];
      const double mu_b = sums[kPairLanes + l];
      const double va = sums[2 * kPairLanes + l] - mu_a * mu_a;
      const double vb = sums[3 * kPairLanes + l] - mu_b * mu_b;
      const double cov = sums[4 * kPairLanes + l] - mu_a * mu_b;
      const double num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
      const double den = (mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2);
      total += num / den;
    }
  }
  return total;
}

}  // namespace

const SimdOps& scalar_ops() {
  static const SimdOps ops = {
      "scalar", hist_add_u16,
      weighted_assign_f32, weighted_init_f64, weighted_add_f64,
      weighted_finish_f32, tap_accumulate_f32, narrow_f64_f32,
      pair_stats_hpass, pair_stats_vpass,
  };
  return ops;
}

}  // namespace decam::simd::detail
