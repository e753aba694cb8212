// The PREVENTION baseline Decamouflage argues against: Quiring et al.'s
// image-reconstruction defence. Before the pipeline's resize, every pixel
// the scaler reads (the "critical" set the attacker controls) is replaced
// by a robust statistic of its non-critical neighbourhood, cleansing any
// embedded target pixels.
//
// It works — the attack's payload never reaches the model — but it
// modifies EVERY input, including benign ones, degrading what the CNN
// sees. `paper ablation_prevention_quality` quantifies that trade, which is
// the paper's motivation for detecting instead of preventing.
#pragma once

#include "imaging/image.h"
#include "imaging/kernels.h"

namespace decam::core {

struct ReconstructionConfig {
  int target_width = 224;   // the pipeline geometry being protected
  int target_height = 224;
  ScaleAlgo algo = ScaleAlgo::Bilinear;
  int neighbourhood = 2;    // radius of the median window, in pixels
};

/// Returns a copy of `input` with every critical pixel replaced by the
/// median of the NON-critical pixels within the neighbourhood window
/// (falling back to the full-window median where no clean neighbour
/// exists, e.g. ratios < 2 where every pixel is critical).
Image reconstruct_critical_pixels(const Image& input,
                                  const ReconstructionConfig& config);

}  // namespace decam::core
