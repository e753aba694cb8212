// Preprocessing defenses — the pixmask-style family of cheap input
// transforms a deployment can run BEFORE the CNN's resize in the hope of
// destroying an image-scaling payload (or, wrapped around a detector
// battery, before scoring): bit-depth squeezing, median smoothing, Gaussian
// smoothing, and JPEG requantization through imaging/jpeg_sim.
//
// Unlike the Quiring reconstruction defence (reconstruction_defense.h),
// which surgically rewrites exactly the critical pixels, these transforms
// are attack-agnostic and touch EVERY pixel — which is precisely why the
// adversary-aware matrix (bench/matrix_adaptive) sweeps them: a defense
// that damages the payload also damages benign inputs and shifts every
// detector's score distribution, so thresholds calibrated on raw images do
// not automatically transfer. DefendedDetector makes that wrapping explicit.
//
// Determinism contract: every transform is a pure per-image function of its
// input — no RNG, no global state — and is computed with the same
// fixed-order arithmetic as the library kernels it delegates to
// (rank_filter, gaussian_blur, jpeg_roundtrip). Defense-wrapped scans are
// therefore bit-identical across thread counts, which
// tests/battery_determinism_test.cmake pins end to end.
//
// Bit-exactness caveat (DESIGN.md §13): smoothing and JPEG requantization
// produce non-integral float pixels, so a defended image generally leaves
// the 8-bit integer grid — a downstream 3x3 median takes the exact
// sorted-window path instead of the selection network, and detector
// scores are NOT comparable to calibrations made on undefended images.
// bit_depth_squeeze is the exception: its output is again exactly integral
// in [0, 255] (and the transform is idempotent), so it keeps the network
// eligible.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "imaging/image.h"

namespace decam::core {

enum class DefenseKind {
  Squeeze,   // bit-depth squeezing to `param` bits (1..8)
  Median,    // param x param median filter
  Gaussian,  // Gaussian blur, sigma = param
  Jpeg,      // JPEG requantization at quality = param (1..100)
};

const char* to_string(DefenseKind kind);

struct DefenseStep {
  DefenseKind kind = DefenseKind::Squeeze;
  double param = 0.0;
};

/// Quantises every pixel to `bits` bits of depth (1 <= bits <= 8): the
/// [0, 255] range is mapped onto 2^bits near-evenly spaced INTEGER levels
/// (round(i * 255/(2^bits-1))) and each value snaps to the nearest level.
/// Values outside [0, 255] are clamped first. Output pixels are always
/// exactly integral in [0, 255] — squeezed images keep the Grid8 3x3
/// median network eligible — and re-applying the squeeze is an exact no-op
/// (idempotence is pinned in tests/preprocess_defense_test.cpp).
Image bit_depth_squeeze(const Image& input, int bits);

/// An ordered list of defense steps applied left to right. Parsed from a
/// compact spec string so benches and `decamctl scan --defense=<spec>` share
/// one grammar:
///
///   spec    := "none" | step ("+" step)*
///   step    := "squeeze" BITS | "median" K | "gauss" SIGMA | "jpeg" QUALITY
///
/// BITS, K and QUALITY are decimal integers and SIGMA a fixed-point
/// decimal ("0.8", ".5", "2"), each the whole rest of its step: no
/// whitespace, exponent or hex form. e.g. "squeeze4", "median3",
/// "gauss0.8", "squeeze5+jpeg75". parse() throws std::invalid_argument on
/// anything else; name() returns the canonical spec (round-trips through
/// parse()).
///
/// median3 is the fast median: on 8-bit images it runs the 3x3 selection
/// network. Every other K runs the exact sorted window, whose cost grows
/// with K² (DESIGN.md §12 has the numbers).
class DefenseChain {
 public:
  DefenseChain() = default;
  explicit DefenseChain(std::vector<DefenseStep> steps);

  static DefenseChain parse(const std::string& spec);

  /// Applies every step in order. An empty chain returns the input copy.
  Image apply(const Image& input) const;

  /// Canonical spec string ("none" for the empty chain).
  std::string name() const;

  bool empty() const { return steps_.empty(); }
  const std::vector<DefenseStep>& steps() const { return steps_; }

 private:
  std::vector<DefenseStep> steps_;
};

/// A detector scored through a defense chain: score(x) of the wrapped
/// detector on chain.apply(x). It primes no stages and never reads shared
/// intermediates — a context built for the RAW image holds the wrong round
/// trip / filtered image / spectrum for the defended view, and silently
/// consuming it would change the score. name() is "<chain>><inner>", e.g.
/// "squeeze4>scaling/mse".
class DefendedDetector final : public Detector {
 public:
  DefendedDetector(std::shared_ptr<const Detector> inner, DefenseChain chain);

  std::string name() const override;

  const DefenseChain& chain() const { return chain_; }
  const Detector& inner() const { return *inner_; }

 private:
  double reduce(const AnalysisContext& context) const override;

  std::shared_ptr<const Detector> inner_;
  DefenseChain chain_;
};

}  // namespace decam::core
