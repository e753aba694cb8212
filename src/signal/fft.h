// Fast Fourier Transform substrate for the steganalysis detector.
//
// Supports arbitrary lengths: 7-smooth sizes (prime factors 2, 3, 5 and 7
// only — 224, 448, 480, 640 as well as the powers of two) run a planned
// Stockham autosort transform with radix-4/2/3/5/7 stages; every other
// length goes through Bluestein's chirp-z algorithm, whose convolution runs
// at a padded 7-smooth length. Real images of any geometry — Caltech-style
// 300x451, say — therefore transform exactly, not via cropping or
// zero-padding that would distort the spectrum the detector inspects.
//
// All twiddle tables live in the LRU plan cache (fft_plan.h), and the
// butterflies are one template over the lane type (common/fft_kernels.h).
// The image transform is the spectrum stage's own (spectrum.h): four lines
// per vector, two real rows packed per complex line, only columns 0..w/2
// transformed. DESIGN.md §10 covers the engine and its numerical-tolerance
// policy: restructured summation orders mean results match a naive DFT to
// ~1e-12 relative, but are not bit-identical to a textbook transform.
#pragma once

#include <vector>

#include "signal/fft_plan.h"

namespace decam {

/// In-place forward/inverse FFT of arbitrary length n >= 1. The inverse
/// includes the 1/n normalisation, so an inverse after a forward transform
/// returns the input.
void fft(std::vector<Complex>& data, bool inverse);

}  // namespace decam
