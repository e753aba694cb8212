// Fused pair statistics — MSE, windowed SSIM and PSNR of one (reference,
// reconstruction) image pair from a single tiled traversal.
//
// The battery's scaling and filtering stages each reduce the same pair with
// three metrics; computed separately that is seven full-image sweeps (MSE,
// five Gaussian filter passes inside SSIM, and PSNR re-running MSE). The
// fused pass widens each source pixel and forms its products one L1-sized
// strip of 64 pixels at a time (the 10-sample halo twice). The
// horizontal pass then sums the 11 taps of the five windowed sums SSIM
// needs (μ_a, μ_b, a², b², ab) for a block of four pixels (eight on the
// AVX-512 table) in registers and
// stores each sum once into a ring of 11 rows; the vertical pass sums a
// block's 11 ring rows in registers and evaluates the SSIM map there, while
// the rows are still cache-hot. The squared-difference accumulator for MSE
// rides along in the same row walk, and PSNR is derived from the MSE value.
//
// Bit-exactness contract: every accumulator preserves the reference
// implementations' floating-point addition order (flat data order for MSE,
// per-tap then row-major order for SSIM), so pair_stats() returns exactly
// the values of mse() / ssim() / psnr() called separately. The golden
// battery tests, the 1-vs-N-thread determinism suite and the definition
// in tests/reference_kernels.h pin this down.
#pragma once

#include "imaging/image.h"

namespace decam {

/// The three reductions of one image pair.
struct PairStats {
  double mse = 0.0;
  double ssim = 0.0;
  double psnr = 0.0;
};

/// MSE + mean windowed SSIM + PSNR of (a, b) in one traversal. Shapes must
/// match; results are bit-identical to mse(a, b), ssim(a, b), psnr(a, b).
/// `b`'s rows are read once each, in planar order, one row at a time (a
/// resize or rank producer, or an image's planes), so a derived image is
/// reduced without being stored. The walk's scratch is the calling
/// thread's, kept across calls and counted as
/// `mem/pair_stats_workspace_bytes`.
PairStats pair_stats(const Image& a, RowSource& b);
PairStats pair_stats(const Image& a, const Image& b);

}  // namespace decam
