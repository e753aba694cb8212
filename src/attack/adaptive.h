// Adaptive attacks — the paper's §6 discussion made concrete. An attacker
// aware of a SPECIFIC Decamouflage method can try to suppress exactly the
// signal that method thresholds:
//
//  * noise_masked_attack targets the STEGANALYSIS detector: after crafting
//    a normal attack, it sprays random noise over the NON-critical pixels
//    (which the scaler never reads, so scale(A) is untouched), trying to
//    raise the spectral floor over the harmonic peaks the CSP count keys
//    on. Empirically the move FAILS (see tests/adaptive_defense_test.cpp
//    and `paper ablation_adaptive`): the harmonics are produced by the
//    critical-pixel deltas themselves, which the attacker cannot soften
//    without losing the payload, and they tower over any noise floor the
//    remaining pixels can raise — while the added noise degrades the
//    attack's stealth and feeds the scaling/filtering detectors.
//
//  * off_grid_spread_attack targets the FILTERING (and partly the scaling)
//    detector, following Quiring & Rieck's observation that the payload
//    need not sit on isolated sampling points. After crafting the base
//    attack it blends every pixel toward the attack's own round-trip
//    reconstruction, weighted by (1 - coefficient influence): pixels the
//    scaler reads heavily stay put (the downscaled target is approximately
//    preserved), while the unread neighbourhood around each critical pixel
//    moves toward the payload value. The critical pixels stop being
//    isolated extremes, so the min-filter residual — exactly what the
//    filtering detector thresholds — shrinks. Pushed hard enough the same
//    blend also drags the input toward its round trip and starts eroding
//    the scaling detector's MSE, which is why the ensemble still holds
//    (bench/matrix_adaptive quantifies the trade-off per spread setting).
//
//  * jpeg_robust_attack targets DEPLOYMENT, not a detector: real upload
//    pipelines recompress before resizing, and a vanilla attack's payload
//    sits in exactly the high-frequency structure JPEG quantises away. The
//    attack re-solves the QP in a fixed-point loop against an adjusted
//    target: craft, push through imaging/jpeg_sim at the configured
//    quality, measure the post-JPEG downscale error, pre-compensate the
//    target by that error, repeat until the payload survives requantisation
//    (or the round budget runs out).
//
//  * histogram-matched targets are provided by `paper ablation_histogram`:
//    they DO defeat Xiao's histogram heuristic — but not Decamouflage.
//
// Together: the adaptive moves that beat the weak baseline or a single
// method don't dent the ensemble, and the attacker's levers against one
// method strengthen the evidence seen by the others. bench/matrix_adaptive
// sweeps all of these against the preprocessing defenses
// (core/preprocess_defense.h) and every detector.
#pragma once

#include "attack/scale_attack.h"
#include "data/rng.h"

namespace decam::attack {

struct NoiseMaskOptions {
  AttackOptions base;          // the underlying attack to adapt
  double noise_amplitude = 24.0;  // uniform +-amplitude on masked pixels
  std::uint64_t seed = 1;
};

/// Crafts `base` attack, then adds uniform noise to every pixel the scaler
/// does not read. The returned report is re-assessed on the final image
/// (downscale error is unchanged by construction; source SSIM drops).
AttackResult noise_masked_attack(const Image& source, const Image& target,
                                 const NoiseMaskOptions& options);

struct OffGridOptions {
  AttackOptions base;   // the underlying attack to adapt
  double spread = 0.5;  // blend strength toward the round trip, in [0, 1]
};

/// Blends `attack_image` toward its own round-trip reconstruction through
/// the (target_w, target_h, algo) scaler, each pixel weighted by
/// spread * (1 - its normalised coefficient influence). Heavily-read pixels
/// are left alone, unread pixels blend at full `spread`. Output is rounded
/// and clamped to the 8-bit grid like every crafted attack. Exposed
/// separately so benches and tests can re-spread a cached base attack.
Image spread_off_grid(const Image& attack_image, int target_w, int target_h,
                      ScaleAlgo algo, double spread);

/// Crafts `base` attack, then applies spread_off_grid. The report is
/// re-assessed on the final image: downscale_linf grows slightly (weakly
/// read taps moved), source_ssim typically improves (the spread smooths the
/// isolated payload deltas the human eye would catch too).
AttackResult off_grid_spread_attack(const Image& source, const Image& target,
                                    const OffGridOptions& options);

struct JpegRobustOptions {
  AttackOptions base;       // the underlying attack to re-solve each round
  int quality = 75;         // JPEG quality the payload must survive
  int max_rounds = 6;       // fixed-point iteration budget (>= 1)
  // Damped pre-compensation: a full step (1.0) overshoots — JPEG's
  // quantisation is non-linear, so the measured error is only a first-order
  // signal. 0.5 empirically converges several intensity levels lower.
  double step = 0.5;
  double survive_linf = 24.0;  // post-JPEG |scale(J)-T|_inf acceptance bound
};

struct JpegRobustResult {
  AttackResult attack;          // final attack image, assessed pre-JPEG
  int rounds = 0;               // QP solves actually spent
  double post_jpeg_linf = 0.0;  // |scale(jpeg(A)) - T|_inf at the end
  double post_jpeg_mse = 0.0;   // MSE(scale(jpeg(A)), T) at the end
  bool survived = false;        // post_jpeg_linf <= survive_linf
};

/// Iteratively re-solves the scaling-attack QP through jpeg_roundtrip until
/// the downscale of the RECOMPRESSED attack stays within `survive_linf` of
/// the target, pre-compensating the QP's target by the measured post-JPEG
/// error each round. Keeps the best (lowest post-JPEG error) iterate.
JpegRobustResult jpeg_robust_attack(const Image& source, const Image& target,
                                    const JpegRobustOptions& options);

}  // namespace decam::attack
