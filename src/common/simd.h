// Runtime-dispatched SIMD kernel core.
//
// The per-tap inner loops of the imaging/metrics hot paths (resize tap
// application, separable convolution, the fused pair-stats walk, and the
// row-start histogram rebuild of the median filter) funnel through a table of
// function pointers resolved once at startup: AVX2 on x86-64 hosts that
// support it, NEON on aarch64, and a portable scalar fallback everywhere.
// `DECAM_SIMD=scalar|avx2|neon` overrides the choice per process (an
// unavailable request falls back to scalar with a warning), and benches and
// tests can swap the active table with set_active_isa() to measure or
// verify a specific variant.
//
// Bit-exactness contract: every operation in the table is specified as an
// exact elementwise IEEE sequence (the comments below are the contract) and
// every variant — scalar included — must produce bit-identical results for
// the same inputs. The per-ISA translation units are compiled with
// -ffp-contract=off and use explicit multiply/add intrinsics (never FMA),
// so a vector lane performs exactly the operations the scalar loop does.
// The simd_dispatch ctest re-runs the kernel parity suite with the scalar
// table forced to hold each variant to that promise.
//
// Observability: the resolved ISA is exported as the `simd/dispatch` gauge
// (0 = scalar, 1 = avx2, 2 = neon) so a `decamctl scan --stats` shows which
// kernel core a run actually used.
#pragma once

#include <cstdint>

namespace decam::simd {

enum class Isa { Scalar = 0, Avx2 = 1, Neon = 2 };

/// Geometry of the pair-stats walk (pair_stats_hpass / pair_stats_vpass):
/// the 11-tap SSIM window, blocks of four output pixels, and five window
/// sums per pixel, so one ring block holds 20 doubles.
inline constexpr int kPairTaps = 11;
inline constexpr int kPairLanes = 4;
inline constexpr int kPairStats = 5;
inline constexpr int kPairBlock = kPairStats * kPairLanes;

/// Blocks of one ring row (nb) and the products-row plane width (pw) of
/// the pair-stats walk for a source row of n pixels.
constexpr int pair_blocks(int n) { return (n + kPairLanes - 1) / kPairLanes; }
constexpr int pair_products_width(int n) {
  return pair_blocks(n) * kPairLanes + kPairTaps - 1;
}

const char* to_string(Isa isa);

/// One set of vectorized kernel primitives. All pointers are non-null in
/// every table; `n` is the element count and buffers may be unaligned.
struct SimdOps {
  const char* name;  // matches to_string() of the owning Isa

  /// dst[i] += add[i] over uint16 bins (mod 2^16; exact whenever the true
  /// result fits, which histogram counts do by construction).
  void (*hist_add_u16)(std::uint16_t* dst, const std::uint16_t* add, int n);

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

  /// The fused pair-stats walk (metrics/fused.cpp), whose two passes keep
  /// every accumulator in registers. Both work on blocks of kPairLanes
  /// output pixels: with nb = pair_blocks(n), a ring row holds
  /// nb * kPairBlock doubles laid out [block][stat][lane], so the five
  /// window sums of pixel i sit at (i / 4) * kPairBlock + stat * 4 + i % 4
  /// in stat order mu_a, mu_b, m_aa, m_bb, m_ab. Every window sum starts at
  /// 0.0 and adds its kPairTaps products w * x in ascending tap order — a
  /// multiply, then an add — which is the order of the separable Gaussian.
  ///
  /// pair_stats_hpass: the horizontal window sums of one source row of
  /// n pixels (nothing to do when n == 0). With pw = pair_products_width(n),
  /// it writes the products row `prod` (5 * pw doubles, stat-major): for j
  /// in [0, pw), x = clamp(j - kPairTaps / 2, 0, n - 1), da = (double)a[x]
  /// and db = (double)b[x],
  ///   prod[j] = da, prod[pw + j] = db, prod[2 * pw + j] = da * da,
  ///   prod[3 * pw + j] = db * db, prod[4 * pw + j] = da * db.
  /// For every pixel i in [0, 4 * nb) and stat s, the window sum of
  /// prod[s * pw + i + t] over taps t with weights win[t] goes to the ring
  /// row; lanes i >= n of the last block are edge-replicated padding. It
  /// returns sq_sum + d_0 * d_0 + d_1 * d_1 + ... with
  /// d_x = (double)a[x] - (double)b[x], added one pixel at a time in pixel
  /// order: the MSE walk, overlapped with the window arithmetic.
  double (*pair_stats_hpass)(double* ring_row, double* prod, const float* a,
                             const float* b, const double* win, int n,
                             double sq_sum);
  /// pair_stats_vpass: the vertical window sums and SSIM map of one output
  /// row. rows[t] (t ascending) are the kPairTaps ring rows of the window,
  /// each written by pair_stats_hpass for the same n. For each pixel i in
  /// [0, n), with (mu_a, mu_b, m_aa, m_bb, m_ab) the window sums over t of
  /// win[t] * rows[t][(i / 4) * kPairBlock + stat * 4 + i % 4]:
  ///   va = m_aa - mu_a * mu_a;  vb = m_bb - mu_b * mu_b;
  ///   cov = m_ab - mu_a * mu_b;
  ///   num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
  ///   den = (mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2);
  /// and returns total + num_0 / den_0 + num_1 / den_1 + ..., added one
  /// pixel at a time in pixel order.
  double (*pair_stats_vpass)(const double* const* rows, const double* win,
                             double c1, double c2, int n, double total);
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

/// True when the build carries a native (non-scalar) variant for this host
/// and the CPU supports it, regardless of the active selection.
bool native_available();

}  // namespace decam::simd
