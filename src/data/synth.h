// Synthetic natural-image dataset generator.
//
// The paper calibrates thresholds on the NeurIPS-2017 adversarial-
// competition images and evaluates on Caltech-256. Neither dataset is
// available offline, so we substitute procedurally generated scenes with
// photograph-like statistics (multi-octave noise background + geometric
// content + lighting gradient + mild blur). Two parameter REGIMES with
// disjoint seeds and different size/contrast/content distributions stand in
// for the two datasets, preserving the paper's key protocol point: the
// thresholds are selected on one distribution and evaluated on another
// (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <vector>

#include "data/rng.h"
#include "imaging/image.h"

namespace decam::data {

/// Which dataset distribution a scene is drawn from.
enum class Regime {
  A,  // calibration set stand-in (NeurIPS-2017-like): larger, softer scenes
  B,  // evaluation set stand-in (Caltech-256-like): smaller, busier scenes
};

struct SceneParams {
  int min_side = 448;
  int max_side = 1024;
  int min_shapes = 2;
  int max_shapes = 8;
  double blur_sigma_min = 0.5;
  double blur_sigma_max = 2.0;
  double texture_alpha_min = 0.30;  // how much noise shows through shapes
  double texture_alpha_max = 0.80;
  int noise_octaves_min = 4;  // per-image octave count is drawn uniformly
  int noise_octaves_max = 6;  //   from this range (focus diversity)
  bool color = true;
  // Tail cases that make real photo corpora hard: halftone-like fine
  // stripes (they alias under the no-antialias scalers, inflating benign
  // round-trip scores and occasionally faking CSP harmonics — the source
  // of the paper's 1.7% steganalysis FRR) and near-flat low-texture
  // frames. Probabilities are per image.
  double detail_probability = 0.05;
  double flat_probability = 0.06;
  // Content palette for the shapes (regimes differ here, not in the
  // low-level statistics the detectors score).
  double shape_value_lo = 20.0;
  double shape_value_hi = 235.0;
  // Smooth radial darkening toward the corners (object-photo look).
  bool vignette = false;
};

/// Parameter presets for the two regimes.
SceneParams scene_params(Regime regime);

/// Generates one scene with the given parameters. Width/height are drawn
/// independently from [min_side, max_side] (non-square, like real photos).
Image generate_scene(const SceneParams& params, Rng& rng);

/// Generates a small "CNN-input-sized" target image (what the attacker
/// wants the model to see), e.g. 224x224 — visually unrelated to any scene:
/// high-contrast geometric icon over a flat background.
Image generate_target(int width, int height, Rng& rng, bool color = true);

std::vector<Image> generate_targets(int width, int height, int count,
                                    std::uint64_t seed, bool color = true);

}  // namespace decam::data
