// Scalar reference variant of the SIMD kernel table. Compiled with
// -ffp-contract=off (src/CMakeLists.txt): the loops below are the
// normative elementwise sequences of common/simd.h, and no compiler may
// fuse a multiply-add into an FMA here — that would change roundings and
// break bit-parity with the vector variants, which use explicit
// multiply/add instructions for the same reason.
#include "common/fft_kernels.h"
#include "common/simd_kernels.h"

namespace decam::simd::detail {
namespace {

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

// apply_kernel's contiguous loop, once per row.
void resize_rows4(const KernelTap* taps, const int* offsets, int out_size,
                  const float* const* in, int /*in_size*/, double* /*work*/,
                  float* const* out) {
  for (int r = 0; r < 4; ++r) {
    const KernelTap* tap = taps + offsets[0];
    for (int o = 0; o < out_size; ++o) {
      const KernelTap* end = taps + offsets[o + 1];
      double acc = 0.0;
      for (; tap != end; ++tap) {
        acc += static_cast<double>(tap->weight) * in[r][tap->index];
      }
      out[r][o] = static_cast<float>(acc);
    }
  }
}

// The walk on blocks of four pixels. Both passes run each window sum's
// taps innermost, so the compiler keeps the sum in a register; tap-outer
// sweeps over a block's twenty sums compiled to memory round trips and ran
// at half the speed.
constexpr int kLanes = 4;
constexpr int kBlock = kPairStats * kLanes;
constexpr int kStripBlocks = kPairStrip / kLanes;

double pair_stats_hpass(double* ring_row, const float* a, const float* b,
                        const double* win, int n, double sq_sum) {
  double prod[kPairStats * kPairStripSamples];
  const int blocks = pair_blocks(n, kLanes);
  for (int k0 = 0; k0 < blocks; k0 += kStripBlocks) {
    const int strip = std::min(kStripBlocks, blocks - k0);
    fill_pair_strip(prod, a, b, n, k0 * kLanes,
                    strip * kLanes + kPairTaps - 1);
    for (int k = 0; k < strip; ++k) {
      double* out = ring_row + (k0 + k) * kBlock;
      for (int s = 0; s < kPairStats; ++s) {
        for (int l = 0; l < kLanes; ++l) {
          const double* p = prod + s * kPairStripSamples + k * kLanes + l;
          double acc = 0.0;
          for (int t = 0; t < kPairTaps; ++t) {
            const double v = win[t] * p[t];
            acc += v;
          }
          out[s * kLanes + l] = acc;
        }
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
  for (int k = 0; k < pair_blocks(n, kLanes); ++k) {
    double sums[kBlock];
    for (int j = 0; j < kBlock; ++j) {
      double acc = 0.0;
      for (int t = 0; t < kPairTaps; ++t) {
        const double v = win[t] * rows[t][k * kBlock + j];
        acc += v;
      }
      sums[j] = acc;
    }
    const int lanes = std::min(kLanes, n - k * kLanes);
    for (int l = 0; l < lanes; ++l) {
      const double mu_a = sums[l];
      const double mu_b = sums[kLanes + l];
      const double va = sums[2 * kLanes + l] - mu_a * mu_a;
      const double vb = sums[3 * kLanes + l] - mu_b * mu_b;
      const double cov = sums[4 * kLanes + l] - mu_a * mu_b;
      const double num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
      const double den = (mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2);
      total += num / den;
    }
  }
  return total;
}

void log_magnitudes(double* out, const double* re, const double* im, int n,
                    double* lo, double* hi) {
  log_magnitudes_tail(out, re, im, n, *lo, *hi);
}

// The lane type of the scalar fft_lanes: four plain doubles, one IEEE
// operation per lane, so each lane is the 1-D double sequence.
struct Quad {
  double v[kFftLanes];
};

inline Quad operator+(Quad a, const Quad& b) {
  for (int l = 0; l < kFftLanes; ++l) a.v[l] = a.v[l] + b.v[l];
  return a;
}
inline Quad operator-(Quad a, const Quad& b) {
  for (int l = 0; l < kFftLanes; ++l) a.v[l] = a.v[l] - b.v[l];
  return a;
}
inline Quad operator*(Quad a, const Quad& b) {
  for (int l = 0; l < kFftLanes; ++l) a.v[l] = a.v[l] * b.v[l];
  return a;
}
inline Quad operator*(double s, Quad a) {
  for (int l = 0; l < kFftLanes; ++l) a.v[l] = s * a.v[l];
  return a;
}
inline Quad operator*(Quad a, double s) {
  for (int l = 0; l < kFftLanes; ++l) a.v[l] = a.v[l] * s;
  return a;
}

template <>
struct LaneTraits<Quad> {
  static constexpr std::size_t width = kFftLanes;
  static Quad load(const double* p) {
    Quad q;
    for (int l = 0; l < kFftLanes; ++l) q.v[l] = p[l];
    return q;
  }
  static void store(double* p, const Quad& q) {
    for (int l = 0; l < kFftLanes; ++l) p[l] = q.v[l];
  }
  static Quad broadcast(double x) {
    Quad q;
    for (double& v : q.v) v = x;
    return q;
  }
};

void fft_lanes(const FftLanePlan& plan, double* re, double* im,
               double* work) {
  fft_exec<Quad>(plan, re, im, work);
}

void deinterleave_u8(float* const* dst, const std::uint8_t* src, int channels,
                     int n) {
  deinterleave_u8_body(dst, src, channels, n);
}

bool grid8_u8(std::uint8_t* dst, const float* src, int n) {
  return grid8_u8_body(dst, src, n);
}

void median3_u8(float* out, const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, int n) {
  median3_u8_body(out, r0, r1, r2, n);
}

}  // namespace

const SimdOps& scalar_ops() {
  static const SimdOps ops = {
      "scalar", kLanes, weighted_assign_f32, weighted_init_f64,
      weighted_add_f64, weighted_finish_f32, tap_accumulate_f32,
      narrow_f64_f32, resize_rows4, pair_stats_hpass, pair_stats_vpass,
      log_magnitudes,
      fft_lanes, deinterleave_u8, grid8_u8, median3_u8,
  };
  return ops;
}

}  // namespace decam::simd::detail
