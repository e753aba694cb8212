// Blob counting — the "contour detection function" of the paper's CSP
// metric (Section IV-B). The steganalysis detector counts the 8-connected
// foreground regions of its binary spectrum whose area clears a noise
// floor.
#pragma once

#include "imaging/image.h"

namespace decam {

/// Number of 8-connected components of pixels > 0 in a 1-channel image
/// whose area (pixel count) is at least `min_area` (>= 1).
int count_blobs(const Image& binary, int min_area = 1);

}  // namespace decam
