// JPEG-style lossy recompression simulator: 8x8 block DCT, quantisation
// with the standard luminance table scaled by a quality factor, inverse
// DCT. No entropy coding (we only need the LOSS, not the byte stream).
//
// Why it exists: real upload pipelines recompress images before they ever
// reach the CNN. `paper extension_postprocessing` uses this to measure (a)
// how much recompression an image-scaling attack tolerates — empirically
// the payload degrades GRACEFULLY, surviving moderate quality levels
// (q >= ~40) and only dissolving under aggressive compression (q <= ~10),
// so recompression alone is NOT a defence — and (b) whether recompression
// of benign images pushes Decamouflage's scores across its thresholds
// (it does not, or the detector would false-positive on every upload).
#pragma once

#include <array>

#include "imaging/image.h"

namespace decam {

/// Recompresses `img` at the given quality (1 = worst, 100 = near
/// lossless), emulating libjpeg's quality->quantisation-table scaling.
/// Each channel is processed independently (no chroma subsampling, which
/// keeps the simulation conservative: real JPEG damages attacks more).
Image jpeg_roundtrip(const Image& img, int quality);

/// The effective 8x8 quantisation table at a quality level (exposed for
/// tests).
std::array<int, 64> jpeg_quant_table(int quality);

}  // namespace decam
