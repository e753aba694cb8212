// Runtime-dispatched SIMD kernel core.
//
// The per-tap inner loops of the imaging/metrics hot paths (resize tap
// application, separable convolution, the fused pair-stats walk, the
// decoders' byte to plane store, the k = 3 median's grid check and
// network, and the spectrum's line transform and log magnitudes with their
// min/max) funnel through a table of
// function pointers resolved once at startup: AVX-512 on x86-64 hosts that
// support it, else AVX2, and a portable scalar fallback everywhere else
// (aarch64 included). `DECAM_SIMD=scalar|avx2|avx512` overrides the choice
// per process (an unavailable request falls back to scalar with a
// warning), and benches and tests can swap the active table with
// set_active_isa() to measure or verify a specific variant.
//
// Bit-exactness contract: every operation in the table is specified as an
// exact elementwise IEEE sequence (the comments below are the contract) and
// every variant — scalar included — must produce bit-identical results for
// the same inputs. Every translation unit is compiled with
// -ffp-contract=off and the vector ones use explicit multiply/add
// intrinsics (never FMA), so a vector lane performs exactly the operations
// the scalar loop does.
// The simd_dispatch ctests re-run the parity suites with the scalar and the
// AVX2 table forced to hold each variant to that promise.
//
// Observability: the resolved ISA is exported as the `simd/dispatch` gauge
// (0 = scalar, 1 = avx2, 2 = avx512) so a `decamctl scan --stats` shows
// which kernel core a run actually used.
#pragma once

#include <cstddef>
#include <cstdint>

namespace decam::simd {

enum class Isa { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Geometry of the pair-stats walk (pair_stats_hpass / pair_stats_vpass):
/// the 11-tap SSIM window and five window sums per pixel. The walk works
/// on blocks of SimdOps::pair_lanes output pixels (4 or 8, the table's
/// vector width in doubles), so one ring block holds
/// kPairStats * pair_lanes doubles.
inline constexpr int kPairTaps = 11;
inline constexpr int kPairStats = 5;

/// Blocks of one ring row of the pair-stats walk for a source row of n
/// pixels, and the doubles of that row, at `lanes` pixels per block.
constexpr int pair_blocks(int n, int lanes) { return (n + lanes - 1) / lanes; }
constexpr std::size_t pair_row_doubles(int n, int lanes) {
  return static_cast<std::size_t>(pair_blocks(n, lanes)) * kPairStats *
         static_cast<std::size_t>(lanes);
}

/// pair_stats_hpass forms its products one strip of kPairStrip pixels (16
/// blocks of 4, or 8 blocks of 8) at a time: with the kPairTaps - 1
/// samples of halo, one strip's five product runs are 2.9 KB, which stay
/// in L1.
inline constexpr int kPairStrip = 64;

/// The FFT as SimdOps::fft_lanes reads it (common/fft_kernels.h runs
/// it): lines per call, and a planned transform as plain arrays, which
/// signal/fft_plan.h owns.
inline constexpr int kFftLanes = 4;

/// One Stockham stage: it splits each of `stride` interleaved
/// sub-transforms of length radix * m into `radix` sub-transforms of
/// length m. Input element q + stride * (p + j * m) feeds output
/// q + stride * (radix * p + k), scaled by the twiddle W^(p * k) of the
/// stage length radix * m.
struct FftStage {
  std::uint32_t radix = 0;
  std::uint32_t m = 0;
  std::uint32_t stride = 0;
  std::uint32_t twiddle_offset = 0;  // m - 1 rows of radix - 1 twiddles
};

/// One unnormalised Stockham transform of length n as plain arrays.
struct FftStages {
  std::size_t n = 0;
  bool inverse = false;
  const FftStage* stages = nullptr;
  std::size_t count = 0;
  const double* twiddles = nullptr;  // (re, im) pairs
};

/// One planned transform of length n as plain arrays; signal/fft_plan.h
/// owns the storage. Without a chirp it is a Stockham plan: `smooth`, then
/// 1/n when inverse. With one it is Bluestein's: chirp multiply, `smooth`
/// (the forward convolution transform, length m), kernel multiply,
/// `conv_inverse` (the kernel carries its 1/m), chirp multiply (times 1/n
/// when inverse).
struct FftLanePlan {
  std::size_t n = 1;
  bool inverse = false;
  FftStages smooth;
  const double* chirp = nullptr;   // n (re, im) pairs
  const double* kernel = nullptr;  // m (re, im) pairs
  FftStages conv_inverse;
};

/// Doubles of work space one line of `plan` needs: a ping-pong buffer, and
/// for Bluestein the padded convolution sequence as well.
inline std::size_t fft_work_doubles(const FftLanePlan& plan) {
  return (plan.chirp ? 4 : 2) * plan.smooth.n;
}

/// One weighted source sample of a 1-D resample: imaging/kernels.h's
/// KernelTable holds them (as `Tap`), and resize_rows4 reads them.
struct KernelTap {
  int index;     // clamped source index in [0, in_size)
  float weight;  // kernel weight; weights of one output sample sum to 1
};

const char* to_string(Isa isa);

/// One set of vectorized kernel primitives. All pointers are non-null in
/// every table; `n` is the element count and buffers may be unaligned.
struct SimdOps {
  const char* name;  // matches to_string() of the owning Isa
  /// Pixels per block of the pair-stats walk: 4 on the scalar and AVX2
  /// tables, 8 on AVX-512.
  int pair_lanes;

  /// out[i] = (float)(w * (double)in[i])
  void (*weighted_assign_f32)(float* out, const float* in, double w, int n);
  /// acc[i] = w * (double)in[i]
  void (*weighted_init_f64)(double* acc, const float* in, double w, int n);
  /// acc[i] += w * (double)in[i]   (double product, then double add)
  void (*weighted_add_f64)(double* acc, const float* in, double w, int n);
  /// out[i] = (float)(acc[i] + w * (double)in[i])
  void (*weighted_finish_f32)(float* out, const double* acc, const float* in,
                              double w, int n);

  /// acc[i] += (double)(kw * in[i])  — FLOAT product, double accumulate:
  /// the separable-convolution contract of imaging/filter.h.
  void (*tap_accumulate_f32)(double* acc, const float* in, float kw, int n);
  /// out[i] = (float)acc[i]
  void (*narrow_f64_f32)(float* out, const double* acc, int n);

  /// The resize's horizontal pass (imaging/scale.h) on four source rows
  /// in[0..3] of in_size samples each. The taps of output o are
  /// taps[offsets[o]] .. taps[offsets[o + 1] - 1]; for each row r and
  /// output o in [0, out_size),
  ///   out[r][o] = (float)(((0.0 + w_0 * x_0) + w_1 * x_1) + ...)
  /// over those taps in ascending order, with w = (double)tap.weight and
  /// x = (double)in[r][tap.index] — a multiply, then an add — which is
  /// apply_kernel (imaging/kernels.h) on each row. `work` holds
  /// 4 * in_size doubles of scratch.
  void (*resize_rows4)(const KernelTap* taps, const int* offsets,
                       int out_size, const float* const* in, int in_size,
                       double* work, float* const* out);

  /// The fused pair-stats walk (metrics/fused.cpp), whose two passes keep
  /// every accumulator in registers. Both work on blocks of L = pair_lanes
  /// output pixels: with nb = pair_blocks(n, L), a ring row holds
  /// pair_row_doubles(n, L) doubles laid out [block][stat][lane], so the
  /// five window sums of pixel i sit at
  ///   (i / L) * kPairStats * L + stat * L + i % L
  /// in stat order mu_a, mu_b, m_aa, m_bb, m_ab. Every window sum starts at
  /// 0.0 and adds its kPairTaps products w * x in ascending tap order — a
  /// multiply, then an add — which is the order of the separable Gaussian.
  ///
  /// pair_stats_hpass: the horizontal window sums of one source row of
  /// n pixels (nothing to do when n == 0). The products of sample
  /// j in [0, L * nb + kPairTaps - 1) are, with
  /// x = clamp(j - kPairTaps / 2, 0, n - 1), da = (double)a[x] and
  /// db = (double)b[x], in stat order
  ///   p_0(j) = da, p_1(j) = db, p_2(j) = da * da, p_3(j) = db * db,
  ///   p_4(j) = da * db.
  /// For every pixel i in [0, L * nb) and stat s, the window sum of
  /// p_s(i + t) over taps t with weights win[t] goes to the ring row; lanes
  /// i >= n of the last block are edge-replicated padding. The products
  /// are formed one strip of kPairStrip pixels plus its halo at a time, in
  /// the table's own L1-sized buffer. It returns
  /// sq_sum + d_0 * d_0 + d_1 * d_1 + ... with
  /// d_x = (double)a[x] - (double)b[x], added one pixel at a time in pixel
  /// order: the MSE walk, overlapped with the window arithmetic.
  double (*pair_stats_hpass)(double* ring_row, const float* a,
                             const float* b, const double* win, int n,
                             double sq_sum);
  /// pair_stats_vpass: the vertical window sums and SSIM map of one output
  /// row. rows[t] (t ascending) are the kPairTaps ring rows of the window,
  /// each written by pair_stats_hpass for the same n. For each pixel i in
  /// [0, n), with (mu_a, mu_b, m_aa, m_bb, m_ab) the window sums over t of
  /// win[t] times the ring value of pixel i and that stat in rows[t]:
  ///   va = m_aa - mu_a * mu_a;  vb = m_bb - mu_b * mu_b;
  ///   cov = m_ab - mu_a * mu_b;
  ///   num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
  ///   den = (mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2);
  /// and returns total + num_0 / den_0 + num_1 / den_1 + ..., added one
  /// pixel at a time in pixel order.
  double (*pair_stats_vpass)(const double* const* rows, const double* win,
                             double c1, double c2, int n, double total);

  /// The spectrum's log magnitudes (signal/spectrum.h). Bin i is
  /// (re[i], im[i]), and `out` may be `re` (in place); for each,
  ///   out[i] = log_ge1(1.0 + sqrt(re * re + im * im))
  /// and *lo = min(*lo, out[i]), *hi = max(*hi, out[i]). log_ge1(u) is the
  /// polynomial log for u >= 1 (common/simd_kernels.h): with b the bits of
  /// u, e = (b - bits(sqrt(1/2))) >> 52, f = double(b - (e << 52)),
  /// r = (f - 1.0) / (f + 1.0) and r2 = r * r,
  ///   poly = 1 + r2 * (1/3 + r2 * (1/5 + ... + r2 * (1/13)))
  /// (Horner, a multiply then an add per step), and the result is
  /// double(e) * ln2 + 2.0 * r * poly. Inputs are finite, so no value is
  /// NaN or -0 and min/max are exact in any order.
  void (*log_magnitudes)(double* out, const double* re, const double* im,
                         int n, double* lo, double* hi);

  /// The spectrum's line transform: `plan` on kFftLanes lines at once, in
  /// place. Split form: element j of line l is (re[j * kFftLanes + l],
  /// im[j * kFftLanes + l]) for j in [0, plan.n); `work` holds
  /// kFftLanes * fft_work_doubles(plan) doubles of scratch. Each lane runs
  /// the one butterfly template of common/fft_kernels.h with the plan's
  /// stage order and twiddles (a multiply, then an add, never fused), so
  /// every lane equals the 1-D transform of its line (PlannedFft) bit for
  /// bit, whatever the other lanes hold.
  void (*fft_lanes)(const FftLanePlan& plan, double* re, double* im,
                    double* work);

  /// Decode: n pixels of `channels` interleaved bytes to one float row per
  /// channel, dst[c][i] = (float)src[i * channels + c]. A caller that
  /// passes its planes in another order (BMP's B, G, R) reorders dst.
  void (*deinterleave_u8)(float* const* dst, const std::uint8_t* src,
                          int channels, int n);

  /// The k = 3 median's 8-bit grid (imaging/filter.h), one row of n
  /// samples: with r = src[i] + 2^23 (a float add), dst[i] is the low byte
  /// of the bits of r, and it returns whether every sample is on the grid,
  /// i.e. src[i] >= 0, src[i] <= 255 and r - 2^23 == src[i] for all i. On
  /// the grid dst[i] == src[i]; -0.0 passes as 0, and NaN or an infinity
  /// fails a compare. This is the one definition of the grid.
  bool (*grid8_u8)(std::uint8_t* dst, const float* src, int n);
  /// The 3x3 median network on one output row (n >= 1): r0, r1 and r2 are
  /// the window's three u8 rows, top to bottom. For each x, over the
  /// columns x, x + 1 and x + 2 (each clamped to n - 1), sort every
  /// column into lo <= mid <= hi; then
  ///   out[x] = (float)med3(max3(lo), med3(mid), min3(hi)),
  /// the median of the nine samples.
  void (*median3_u8)(float* out, const std::uint8_t* r0,
                     const std::uint8_t* r1, const std::uint8_t* r2, int n);
};

/// The active table. Resolved once (cpuid + DECAM_SIMD) on first use;
/// subsequent calls are one relaxed atomic load.
const SimdOps& ops();

/// The ISA the active table implements.
Isa active_isa();

/// Swaps the active table (benches measuring `…/scalar` variants, parity
/// tests). Returns the previous ISA. Requesting an ISA this host cannot run
/// falls back to Scalar. Not intended for concurrent use with hot loops in
/// flight on other threads.
Isa set_active_isa(Isa isa);

/// True when the build carries `isa`'s table and this CPU (and its OS) can
/// run it, regardless of the active selection. Scalar always can.
bool runnable(Isa isa);

/// True when the build carries a native (non-scalar) variant for this host
/// and the CPU supports it, regardless of the active selection.
bool native_available();

}  // namespace decam::simd
