// Binarisation utilities for the steganalysis pipeline: fixed-level
// thresholding, plus the circular low-pass mask of the paper's Eq. (7)
// that restricts blob counting to low frequencies.
#pragma once

#include "imaging/image.h"

namespace decam {

/// Fixed binarisation: out = 255 where img > level, else 0. 1 channel only.
Image binarize(const Image& img, float level);

/// Zeroes every pixel of a 1-channel image farther than `radius` from the
/// image centre — the ideal low-pass mask H(u,v) of Eq. (7), applied in the
/// (already centered) spectrum domain.
Image circular_low_pass(const Image& img, double radius);

}  // namespace decam
