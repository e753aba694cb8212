// The deployed detector (paper Section IV-A): one majority vote over the
// scaling/MSE, filtering/SSIM and steganalysis/CSP methods with black-box
// thresholds, run offline over a dataset or online in front of a model.
//
// A Scanner is built once from a ScanConfig and a CalibrationProfile and
// then scores images with scan(), one ScanRecord each. calibrate() fits the
// profile it consumes from benign images. Every front end (decamctl scan
// and calibrate, the examples) goes through this one definition.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/calibration_io.h"
#include "core/ensemble.h"
#include "core/preprocess_defense.h"
#include "imaging/image.h"
#include "imaging/kernels.h"
#include "obs/metrics.h"

namespace decam::core {

struct ScanConfig {
  int model_width = 224;  // CNN input geometry (Table 1 of the paper)
  int model_height = 224;
  ScaleAlgo scaler = ScaleAlgo::Bilinear;  // victim pipeline's scaler
  DefenseChain defense;                    // empty: score the raw image
  bool short_circuit = false;  // stop scoring once the majority is decided
};

/// One member's part of a verdict. `score`, `vote` and `ms` are nullopt
/// when the short circuit skipped the member.
struct MemberRecord {
  std::string name;  // detector name, "<chain>><method>" when defended
  double threshold = 0.0;
  Polarity polarity = Polarity::HighIsAttack;
  std::optional<double> score;
  std::optional<bool> vote;
  std::optional<double> ms;  // wall time of the member's score, its stage
                             // build included
};

/// The decision record of one image. `error` is empty when the image was
/// scored; otherwise it says why not, and no member holds a score.
struct ScanRecord {
  std::vector<MemberRecord> members;  // vote order
  bool attack = false;
  double total_ms = 0.0;  // sum of the members' ms
  std::string error;
};

class Scanner {
 public:
  /// Members take their thresholds from `profile`, keyed by the undefended
  /// method name ("scaling/mse", ...). CSP falls back to its universal
  /// threshold; a missing entry for any other member throws
  /// std::invalid_argument naming it.
  Scanner(ScanConfig config, const CalibrationProfile& profile);

  /// Scores one image through EnsembleDetector::decide() on one Deferred
  /// context, and adds each scored member's ms to its `detector/<name>`
  /// histogram. An image not larger than the model input on both sides
  /// gets an error record. Const and safe to call from pool lanes.
  ScanRecord scan(const Image& image) const;

  /// Fits a profile to `count` benign images, `load(i)` decoding image i on
  /// whichever pool lane scores it (so at most one image per lane is held).
  /// Each fitted member gets the `percentile` black-box threshold on its own
  /// polarity side, scored through `config.defense` when it is set, then
  /// widened by `margin`: multiplied on the high side, divided on the low.
  /// CSP keeps its universal threshold. Throws std::invalid_argument for a
  /// percentile outside (0, 50] or a margin below 1 before loading anything,
  /// and for an image scan() would reject as not larger than the model
  /// input, naming its index and both sizes.
  static CalibrationProfile calibrate(
      const ScanConfig& config, std::size_t count,
      const std::function<Image(std::size_t)>& load, double percentile,
      double margin = 1.0);

  /// Conservative thresholds for scanning without a calibrated profile
  /// (EXPERIMENTS.md); production use calibrates on in-house benign images.
  static CalibrationProfile generic_profile();

 private:
  ScanConfig config_;
  EnsembleDetector ensemble_;
  std::vector<MemberRecord> unscored_;       // names and thresholds
  std::vector<obs::Histogram*> histograms_;  // detector/<name> per member
};

}  // namespace decam::core
