// Color histograms and the histogram-intersection similarity.
//
// Xiao et al. proposed comparing color histograms of the input and its
// downscaled form as a detection heuristic; both Quiring et al. and this
// paper found the metric does not separate benign from attack images. We
// implement it as the negative baseline (core/histogram_detector.h and the
// ablation bench) so the claim can be reproduced, not just asserted.
#pragma once

#include <vector>

#include "imaging/image.h"

namespace decam {

/// Per-channel histogram with `bins` buckets over [0, 255], normalised so
/// each channel's buckets sum to 1. Layout: channel-major, bins per channel.
std::vector<double> color_histogram(const Image& img, int bins = 32);

/// Histogram intersection similarity in [0, 1] (1 = identical histograms).
double histogram_intersection(const std::vector<double>& h1,
                              const std::vector<double>& h2);

}  // namespace decam
