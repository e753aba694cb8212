// Fused pair statistics — MSE, windowed SSIM and PSNR of one (reference,
// reconstruction) image pair from a single tiled traversal.
//
// The battery's scaling and filtering stages each reduce the same pair with
// three metrics; computed separately that is seven full-image sweeps (MSE,
// five Gaussian filter passes inside SSIM, and PSNR re-running MSE). The
// fused pass widens each source pixel and forms its products once. The
// horizontal pass then sums the 11 taps of the five windowed sums SSIM
// needs (μ_a, μ_b, a², b², ab) for a block of four pixels in registers and
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

#include <vector>

#include "imaging/image.h"

namespace decam {

/// The three reductions of one image pair.
struct PairStats {
  double mse = 0.0;
  double ssim = 0.0;
  double psnr = 0.0;
};

/// Reusable scratch for the fused pass. One per thread (pair_stats() uses
/// the calling thread's); sized on first use and reused across images.
/// `ring` holds the horizontal window sums of the 11 most recent source
/// rows, pixel-blocked [block][stat][4 lanes] (common/simd.h), with a row
/// stride kept off multiples of 4 KiB; `prod` is the edge-padded products
/// row (a, b, a², b², ab as doubles) the horizontal taps read.
struct PairStatsWorkspace {
  std::vector<double> ring;
  std::vector<double> prod;
};

/// The calling thread's default workspace.
PairStatsWorkspace& thread_pair_stats_workspace();

/// MSE + mean windowed SSIM + PSNR of (a, b) in one traversal. Shapes must
/// match; results are bit-identical to mse(a, b), ssim(a, b), psnr(a, b).
PairStats pair_stats(const Image& a, const Image& b);

/// Scratch-reusing overload of the above.
PairStats pair_stats(const Image& a, const Image& b,
                     PairStatsWorkspace& workspace);

}  // namespace decam
