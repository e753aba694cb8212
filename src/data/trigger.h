// Backdoor-trigger stamping for the image-scaling-assisted poisoning
// scenario of the paper's Section II-B: the attacker stamps a visual
// trigger (the "black-frame eye-glasses") onto victim images, then uses the
// scaling attack to disguise the trigger image as the target identity. The
// backdoor_e2e example uses these helpers to build a poisoned corpus, show
// Decamouflage filtering it out and retrain without the backdoor.
#pragma once

#include "data/rng.h"
#include "imaging/image.h"

namespace decam::data {

struct TriggerParams {
  int size_fraction_denom = 5;  // trigger side = image side / denom
  float intensity = 10.0f;      // trigger pixel value (dark frame)
};

/// Stamps a rectangular black-frame trigger (hollow square, "eye-glass"
/// style: two joined frames) near the image centre. Returns the stamped copy.
Image stamp_trigger(const Image& img, const TriggerParams& params = {});

/// Generates a synthetic "face-like" portrait: smooth oval over gradient.
/// Stand-in for the face-recognition corpus in the backdoor walkthrough.
Image generate_portrait(int side, Rng& rng);

/// Portrait of a specific IDENTITY (0..3): class-determining attributes
/// (shirt colour, skin tone, backdrop hue) are fixed per identity while
/// pose-irrelevant details (gradients, blur, exact geometry) vary with the
/// RNG. Learnable by a small CNN at 32x32, which is what the end-to-end
/// backdoor experiment (examples/backdoor_e2e) trains.
Image generate_identity_portrait(int identity, int side, Rng& rng);

/// Number of identities generate_identity_portrait supports.
constexpr int kIdentityCount = 4;

}  // namespace decam::data
