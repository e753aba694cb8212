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

#ifdef DECAM_SIMD_HAVE_X86

#include <immintrin.h>

#include "common/fft_kernels.h"

namespace decam::simd::detail {
namespace {

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

// The resize's horizontal pass on four rows, one row per lane. The rows
// go into `work` transposed and widened, work[4 * x + r] = in[r][x], so a
// tap is one 4-lane load, a multiply by its broadcast weight and an add.
// Each output narrows to four floats, one per row, and every four outputs
// transpose back into the rows.
void resize_rows4(const KernelTap* taps, const int* offsets, int out_size,
                  const float* const* in, int in_size, double* work,
                  float* const* out) {
  int x = 0;
  for (; x + 4 <= in_size; x += 4) {
    __m128 c0 = _mm_loadu_ps(in[0] + x);
    __m128 c1 = _mm_loadu_ps(in[1] + x);
    __m128 c2 = _mm_loadu_ps(in[2] + x);
    __m128 c3 = _mm_loadu_ps(in[3] + x);
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    double* w = work + 4 * x;
    _mm256_storeu_pd(w, _mm256_cvtps_pd(c0));
    _mm256_storeu_pd(w + 4, _mm256_cvtps_pd(c1));
    _mm256_storeu_pd(w + 8, _mm256_cvtps_pd(c2));
    _mm256_storeu_pd(w + 12, _mm256_cvtps_pd(c3));
  }
  for (; x < in_size; ++x) {
    for (int r = 0; r < 4; ++r) work[4 * x + r] = in[r][x];
  }
  const KernelTap* tap = taps + offsets[0];
  const auto output = [&](int o) {
    const KernelTap* end = taps + offsets[o + 1];
    __m256d acc = _mm256_setzero_pd();
    for (; tap != end; ++tap) {
      const __m256d w = _mm256_set1_pd(static_cast<double>(tap->weight));
      const __m256d v = _mm256_loadu_pd(work + 4 * tap->index);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(w, v));
    }
    return _mm256_cvtpd_ps(acc);
  };
  int o = 0;
  for (; o + 4 <= out_size; o += 4) {
    __m128 c0 = output(o);
    __m128 c1 = output(o + 1);
    __m128 c2 = output(o + 2);
    __m128 c3 = output(o + 3);
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    _mm_storeu_ps(out[0] + o, c0);
    _mm_storeu_ps(out[1] + o, c1);
    _mm_storeu_ps(out[2] + o, c2);
    _mm_storeu_ps(out[3] + o, c3);
  }
  for (; o < out_size; ++o) {
    alignas(16) float rows[4];
    _mm_store_ps(rows, output(o));
    for (int r = 0; r < 4; ++r) out[r][o] = rows[r];
  }
}

// log_ge1 (common/simd_kernels.h) on four lanes, operation for operation.
// For u >= 1, b - bits(sqrt(1/2)) is positive, so the logical shift equals
// the scalar arithmetic one; e < 2^11 then converts exactly through the
// 2^52 magic constant (its bits OR e, minus 2^52).
inline __m256d log_ge1_pd(__m256d u) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i bits = _mm256_castpd_si256(u);
  const __m256i e = _mm256_srli_epi64(
      _mm256_sub_epi64(bits, _mm256_set1_epi64x(
                                 static_cast<long long>(kSqrtHalfBits))),
      52);
  const __m256d f =
      _mm256_castsi256_pd(_mm256_sub_epi64(bits, _mm256_slli_epi64(e, 52)));
  const __m256d magic = _mm256_set1_pd(4503599627370496.0);  // 2^52
  const __m256d ed = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(e, _mm256_castpd_si256(magic))),
      magic);
  const __m256d r =
      _mm256_div_pd(_mm256_sub_pd(f, one), _mm256_add_pd(f, one));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_mul_pd(r2, _mm256_set1_pd(1.0 / 13.0));
  p = _mm256_mul_pd(r2, _mm256_add_pd(_mm256_set1_pd(1.0 / 11.0), p));
  p = _mm256_mul_pd(r2, _mm256_add_pd(_mm256_set1_pd(1.0 / 9.0), p));
  p = _mm256_mul_pd(r2, _mm256_add_pd(_mm256_set1_pd(1.0 / 7.0), p));
  p = _mm256_mul_pd(r2, _mm256_add_pd(_mm256_set1_pd(1.0 / 5.0), p));
  p = _mm256_mul_pd(r2, _mm256_add_pd(_mm256_set1_pd(1.0 / 3.0), p));
  p = _mm256_add_pd(one, p);
  const __m256d two_r = _mm256_mul_pd(_mm256_set1_pd(2.0), r);
  return _mm256_add_pd(_mm256_mul_pd(ed, _mm256_set1_pd(kLn2)),
                       _mm256_mul_pd(two_r, p));
}

// Four bins per step. min_pd(v, lo) is v < lo ? v : lo, std::min's rule;
// the lane extremes fold into the scalar ones before the tail.
void log_magnitudes(double* out, const double* re, const double* im, int n,
                    double* lo, double* hi) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d lo4 = _mm256_set1_pd(*lo);
  __m256d hi4 = _mm256_set1_pd(*hi);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(re + i);
    const __m256d b = _mm256_loadu_pd(im + i);
    const __m256d mag2 = _mm256_add_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
    const __m256d v = log_ge1_pd(_mm256_add_pd(one, _mm256_sqrt_pd(mag2)));
    _mm256_storeu_pd(out + i, v);
    lo4 = _mm256_min_pd(v, lo4);
    hi4 = _mm256_max_pd(v, hi4);
  }
  alignas(32) double lanes_lo[4];
  alignas(32) double lanes_hi[4];
  _mm256_store_pd(lanes_lo, lo4);
  _mm256_store_pd(lanes_hi, hi4);
  double l = *lo;
  double h = *hi;
  for (int k = 0; k < 4; ++k) {
    l = std::min(l, lanes_lo[k]);
    h = std::max(h, lanes_hi[k]);
  }
  log_magnitudes_tail(out + i, re + i, im + i, n - i, l, h);
  *lo = l;
  *hi = h;
}

// The lane type of the AVX2 fft_lanes and pair-stats walk: __m256d's four
// doubles, spelled without its may_alias attribute, which a template
// argument drops (-Wignored-attributes). GCC and Clang give it elementwise
// +, -, * and / (a double operand is broadcast), which compile to vaddpd,
// vsubpd, vmulpd and vdivpd here — never a fused multiply-add, since the
// TU is compiled with -ffp-contract=off.
typedef double Pd4 __attribute__((vector_size(32)));

template <>
struct LaneTraits<Pd4> {
  static constexpr std::size_t width = 4;
  static Pd4 load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Pd4 v) { _mm256_storeu_pd(p, v); }
  static Pd4 broadcast(double x) { return _mm256_set1_pd(x); }
};

static_assert(LaneTraits<Pd4>::width == kFftLanes);

// The pair-stats walk on blocks of four pixels, one Pd4 per stat.
double pair_stats_hpass(double* ring_row, const float* a, const float* b,
                        const double* win, int n, double sq_sum) {
  return pair_stats_hpass_lanes<Pd4>(ring_row, a, b, win, n, sq_sum);
}

double pair_stats_vpass(const double* const* rows, const double* win,
                        double c1, double c2, int n, double total) {
  return pair_stats_vpass_lanes<Pd4>(rows, win, c1, c2, n, total);
}

void fft_lanes(const FftLanePlan& plan, double* re, double* im,
               double* work) {
  fft_exec<Pd4>(plan, re, im, work);
}

// The scalar body, compiled here with -mavx2: its fixed-stride loops
// vectorise with byte shuffles the SSE2 baseline lacks.
void deinterleave_u8(float* const* dst, const std::uint8_t* src, int channels,
                     int n) {
  deinterleave_u8_body(dst, src, channels, n);
}

// The 8-bit grid check and the 3x3 network: the scalar bodies again,
// compiled here with -mavx2 into 32-byte compares, packs and byte
// min/max.
bool grid8_u8(std::uint8_t* dst, const float* src, int n) {
  return grid8_u8_body(dst, src, n);
}

void median3_u8(float* out, const std::uint8_t* r0, const std::uint8_t* r1,
                const std::uint8_t* r2, int n) {
  median3_u8_body(out, r0, r1, r2, n);
}

}  // namespace

const SimdOps& avx2_ops() {
  static const SimdOps ops = {
      "avx2", 4, weighted_assign_f32, weighted_init_f64,
      weighted_add_f64, weighted_finish_f32, tap_accumulate_f32,
      narrow_f64_f32, resize_rows4, pair_stats_hpass, pair_stats_vpass,
      log_magnitudes,
      fft_lanes, deinterleave_u8, grid8_u8, median3_u8,
  };
  return ops;
}

}  // namespace decam::simd::detail

#endif  // DECAM_SIMD_HAVE_X86
