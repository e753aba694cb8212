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
// All twiddle tables live in the LRU plan cache (fft_plan.h); the 2-D image
// transform additionally exploits the input being real (two rows packed per
// complex row transform, only columns 0..w/2 transformed) and sweeps
// columns in cache-blocked tiles. DESIGN.md §10 covers the engine and its
// numerical-tolerance policy: restructured summation orders mean results
// match a naive DFT to ~1e-12 relative, but are not bit-identical to the
// pre-plan scalar code.
#pragma once

#include <vector>

#include "imaging/image.h"
#include "signal/fft_plan.h"

namespace decam {

/// In-place forward/inverse FFT of arbitrary length n >= 1. The inverse
/// includes the 1/n normalisation, so an inverse after a forward transform
/// returns the input.
void fft(std::vector<Complex>& data, bool inverse);

/// Forward 2-D DFT of a single-channel image (values used as reals).
/// Multi-channel inputs are converted to luma first. The real-input fast
/// path packs two rows per complex transform and derives the right half of
/// the plane from Hermitian symmetry — roughly half the work of a complex
/// 2-D transform.
std::vector<Complex> fft2d(const Image& img);

/// Scratch-reusing overload: `out` is resized to width*height and filled
/// with the forward transform, reusing its capacity across calls.
void fft2d(const Image& img, std::vector<Complex>& out);

/// The real-input transform both overloads above run: `out` is resized to
/// width*height and only columns 0..width/2 are written. The other columns
/// keep whatever they held; their bins follow from the Hermitian mirror
/// F[y][x] = conj(F[(h-y) mod h][w-x]), which fft2d writes and the spectrum
/// (spectrum.h) applies to magnitudes instead.
void fft2d_half_plane(const Image& img, std::vector<Complex>& out);

/// Swaps quadrants so the zero-frequency bin moves to the centre — the
/// "centering" step of the paper's Eq. (4). Self-inverse for even sizes.
/// In place: no temporary for even dimensions, one row of scratch for odd
/// heights. The fused spectrum path (spectrum.h) never materialises the
/// shifted complex plane; this and fft2d are the definition the spectrum
/// parity tests hold it to.
void fftshift(std::vector<Complex>& data, int width, int height);

}  // namespace decam
