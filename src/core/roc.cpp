#include "core/roc.h"

#include <algorithm>

#include "common/error.h"

namespace decam::core {

RocCurve roc_curve(std::span<const double> benign_scores,
                   std::span<const double> attack_scores, Polarity polarity) {
  DECAM_REQUIRE(!benign_scores.empty() && !attack_scores.empty(),
                "roc_curve needs both classes");

  // Map scores so that HIGHER always means MORE attack-like.
  const double sign = polarity == Polarity::HighIsAttack ? 1.0 : -1.0;
  struct Sample {
    double value;
    bool is_attack;
  };
  std::vector<Sample> samples;
  samples.reserve(benign_scores.size() + attack_scores.size());
  for (double s : benign_scores) samples.push_back({sign * s, false});
  for (double s : attack_scores) samples.push_back({sign * s, true});
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.value > b.value; });

  RocCurve curve;
  const double n_attack = static_cast<double>(attack_scores.size());
  const double n_benign = static_cast<double>(benign_scores.size());
  long tp = 0, fp = 0;
  curve.points.push_back({samples.front().value + 1.0, 0.0, 0.0});
  std::size_t i = 0;
  while (i < samples.size()) {
    // Consume all samples tied at this value before emitting a point.
    const double value = samples[i].value;
    while (i < samples.size() && samples[i].value == value) {
      if (samples[i].is_attack) {
        ++tp;
      } else {
        ++fp;
      }
      ++i;
    }
    curve.points.push_back({sign * value, tp / n_attack, fp / n_benign});
  }
  // Trapezoidal AUC over the FPR axis.
  double auc = 0.0;
  for (std::size_t k = 1; k < curve.points.size(); ++k) {
    const double dx = curve.points[k].false_positive_rate -
                      curve.points[k - 1].false_positive_rate;
    const double avg_y = 0.5 * (curve.points[k].true_positive_rate +
                                curve.points[k - 1].true_positive_rate);
    auc += dx * avg_y;
  }
  curve.auc = auc;
  return curve;
}

}  // namespace decam::core
