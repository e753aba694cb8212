// Geometric transforms: crop, flips, 90-degree rotations. Besides being
// standard library fare, they power the attack-fragility experiment
// (`paper extension_fragility`): the image-scaling attack embeds its payload
// at exact sampling-grid positions, so shifting the grid by a single pixel
// (a 1-px crop) destroys it — while benign content is unaffected.
#pragma once

#include "imaging/image.h"

namespace decam {

/// Copies the [x0, x0+width) x [y0, y0+height) region. Throws when the
/// rectangle leaves the image.
Image crop(const Image& img, int x0, int y0, int width, int height);

/// Mirror around the vertical axis (left-right swap).
Image flip_horizontal(const Image& img);

/// Mirror around the horizontal axis (top-bottom swap).
Image flip_vertical(const Image& img);

/// Quarter-turn clockwise (output is height x width).
Image rotate90_cw(const Image& img);

/// Quarter-turn counter-clockwise.
Image rotate90_ccw(const Image& img);

}  // namespace decam
