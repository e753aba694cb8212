// ROC analysis for detector scores — an extension beyond the paper's
// fixed-threshold tables: the full receiver operating characteristic and
// its AUC quantify how separable the two score distributions are
// independent of any threshold choice, which makes detector/metric
// comparisons (`paper extension_roc`) robust to calibration details.
#pragma once

#include <span>
#include <vector>

#include "core/calibration.h"

namespace decam::core {

struct RocPoint {
  double threshold = 0.0;
  double true_positive_rate = 0.0;   // recall
  double false_positive_rate = 0.0;  // FRR against benign
};

struct RocCurve {
  std::vector<RocPoint> points;  // sorted by ascending FPR
  double auc = 0.0;              // area under the curve, in [0, 1]
};

/// Builds the ROC of a score-based detector. `polarity` states which tail
/// is attack (as in Calibration). Ties are handled by the standard
/// rank-based construction; AUC equals the Mann-Whitney U statistic.
RocCurve roc_curve(std::span<const double> benign_scores,
                   std::span<const double> attack_scores, Polarity polarity);

/// The threshold on the curve minimising (1-TPR) + FPR (Youden-optimal for
/// equal priors), as a ready-to-use Calibration.
Calibration youden_threshold(const RocCurve& curve, Polarity polarity);

}  // namespace decam::core
