// Blob counting — the "contour detection function" of the paper's CSP
// metric (Section IV-B). The steganalysis detector counts the 8-connected
// foreground regions of its byte mask (the binarised low-pass spectrum)
// whose area clears a noise floor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace decam {

/// Number of 8-connected components of the nonzero bytes of a row-major
/// width x height mask whose area (pixel count) is at least `min_area`
/// (>= 1). The fill marks visited pixels by clearing them, so the mask
/// comes back all zero; `stack` is the fill's scratch, reused across calls.
int count_blobs(std::span<std::uint8_t> mask, int width, int height,
                int min_area, std::vector<std::size_t>& stack);

}  // namespace decam
