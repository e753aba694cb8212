// Minimal self-contained image file I/O: binary PPM (P6, RGB), binary PGM
// (P5, grayscale) and 24-bit uncompressed BMP. These cover everything the
// examples and benches need to persist visual artefacts without external
// codec dependencies.
#pragma once

#include <string>

#include "imaging/image.h"

namespace decam {

/// Writes `img` as PGM when it has one channel, PPM when it has three.
/// Values are clamped to [0,255] and rounded. Throws IoError on failure and
/// std::invalid_argument for channel counts other than 1 or 3.
void write_pnm(const Image& img, const std::string& path);

/// Reads a binary PGM (P5) or PPM (P6) file. Throws IoError on malformed
/// input and on any maxval other than 255 (the only depth we emit), naming
/// the maxval.
Image read_pnm(const std::string& path);

/// Writes a 24-bit BMP. 1-channel images are replicated to gray RGB.
void write_bmp(const Image& img, const std::string& path);

/// Reads an uncompressed 24-bit BMP (bottom-up or top-down).
Image read_bmp(const std::string& path);

}  // namespace decam
