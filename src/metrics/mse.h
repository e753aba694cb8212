// Pixel-difference metrics: MSE (the paper's primary scaling/filtering
// score, Eq. 5) and PSNR (evaluated in the paper's appendix and shown NOT
// to separate benign from attack images — we reproduce that negative result
// in `paper fig15_psnr_overlap`).
#pragma once

#include "imaging/image.h"

namespace decam {

/// Mean squared error over all pixels and channels. Shapes must match.
/// `b`'s rows are read once each, in planar order, and folded into one sum
/// in flat data order, so a derived image (a resize, a rank filter) is
/// scored without being stored and its MSE keeps its bits.
double mse(const Image& a, RowSource& b);
double mse(const Image& a, const Image& b);

/// Peak signal-to-noise ratio in dB, Eq. (9): 10*log10((L-1)^2 / MSE) with
/// L = 256 intensity levels. Returns +inf for identical images.
double psnr(const Image& a, const Image& b);

}  // namespace decam
