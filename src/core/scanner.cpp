#include "core/scanner.h"

#include <memory>
#include <stdexcept>

#include "common/error.h"
#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "runtime/parallel.h"

namespace decam::core {
namespace {

// One method of the deployed detector. `generic` is its no-profile
// threshold, and its polarity is the side calibrate() fits. CSP is not
// `fitted`: its threshold is the paper's fixed count (Section III-C).
struct Method {
  std::shared_ptr<const Detector> detector;
  Calibration generic;
  bool fitted = true;
};

// The methods in vote order.
std::vector<Method> methods(const ScanConfig& config) {
  ScalingDetectorConfig scaling;
  scaling.down_width = config.model_width;
  scaling.down_height = config.model_height;
  scaling.down_algo = scaling.up_algo = config.scaler;
  scaling.metric = Metric::MSE;
  FilteringDetectorConfig filtering;
  filtering.metric = Metric::SSIM;
  return {{std::make_shared<ScalingDetector>(scaling),
           Calibration{500.0, Polarity::HighIsAttack, 0.0}},
          {std::make_shared<FilteringDetector>(filtering),
           Calibration{0.45, Polarity::LowIsAttack, 0.0}},
          {std::make_shared<SteganalysisDetector>(),
           Calibration{2.0, Polarity::HighIsAttack, 0.0}, false}};
}

// The detector a member scores with: the method itself, or the method
// through the defense chain (profiles stay keyed by the method's name).
std::shared_ptr<const Detector> scorer(const Method& method,
                                       const DefenseChain& defense) {
  if (defense.empty()) return method.detector;
  return std::make_shared<DefendedDetector>(method.detector, defense);
}

std::vector<EnsembleDetector::Member> members(
    const ScanConfig& config, const CalibrationProfile& profile) {
  std::vector<EnsembleDetector::Member> out;
  for (const Method& method : methods(config)) {
    const std::string name = method.detector->name();
    const auto found = profile.find(name);
    if (found == profile.end() && method.fitted) {
      throw std::invalid_argument("profile has no entry for " + name);
    }
    out.push_back({scorer(method, config.defense),
                   found != profile.end() ? found->second : method.generic});
  }
  return out;
}

std::string geometry(int width, int height) {
  return std::to_string(width) + "x" + std::to_string(height);
}

}  // namespace

Scanner::Scanner(ScanConfig config, const CalibrationProfile& profile)
    : config_(std::move(config)), ensemble_(members(config_, profile)) {
  ensemble_.set_short_circuit(config_.short_circuit);
  for (const EnsembleDetector::Member& member : ensemble_.members()) {
    MemberRecord record;
    record.name = member.detector->name();
    record.threshold = member.calibration.threshold;
    record.polarity = member.calibration.polarity;
    histograms_.push_back(
        &obs::MetricsRegistry::instance().histogram("detector/" + record.name));
    unscored_.push_back(std::move(record));
  }
}

ScanRecord Scanner::scan(const Image& image) const {
  ScanRecord record;
  record.members = unscored_;
  // The scaling method round-trips through the model geometry, which is
  // only defined for an input larger than it.
  if (image.width() <= config_.model_width ||
      image.height() <= config_.model_height) {
    record.error = "image " + geometry(image.width(), image.height()) +
                   " is not larger than the " +
                   geometry(config_.model_width, config_.model_height) +
                   " model input";
    return record;
  }
  const EnsembleDetector::Decision decision = ensemble_.decide(image);
  for (std::size_t i = 0; i < record.members.size(); ++i) {
    MemberRecord& member = record.members[i];
    member.score = decision.scores[i];
    member.vote = decision.votes[i];
    member.ms = decision.elapsed_ms[i];
    if (member.ms) {
      // Histogram only: the detector opens its own `detector/` frame.
      histograms_[i]->record(*member.ms);
      record.total_ms += *member.ms;
    }
  }
  record.attack = decision.attack;
  return record;
}

CalibrationProfile Scanner::calibrate(
    const ScanConfig& config, std::size_t count,
    const std::function<Image(std::size_t)>& load, double percentile,
    double margin) {
  DECAM_REQUIRE(percentile > 0.0 && percentile <= 50.0,
                "percentile must be in (0, 50]");
  DECAM_REQUIRE(margin >= 1.0, "margin must be >= 1");
  const std::vector<Method> deployed = methods(config);
  std::vector<std::shared_ptr<const Detector>> scorers;
  for (const Method& method : deployed) {
    scorers.push_back(scorer(method, config.defense));
  }
  // scores[m][i]: method m on image i, each slot written by one lane.
  std::vector<std::vector<double>> scores(deployed.size(),
                                          std::vector<double>(count));
  runtime::parallel_for(std::size_t{0}, count, [&](std::size_t i) {
    const Image image = load(i);
    for (std::size_t m = 0; m < deployed.size(); ++m) {
      if (deployed[m].fitted) scores[m][i] = scorers[m]->score(image);
    }
  });
  CalibrationProfile profile;
  for (std::size_t m = 0; m < deployed.size(); ++m) {
    const Method& method = deployed[m];
    Calibration& fit = profile[method.detector->name()];
    if (!method.fitted) {
      fit = method.generic;
      continue;
    }
    fit = calibrate_black_box(scores[m], percentile, method.generic.polarity);
    // Small calibration sets underestimate the benign tails; the margin
    // widens each threshold away from the benign side (attack scores sit
    // orders of magnitude away, so detection power is unaffected).
    if (fit.polarity == Polarity::HighIsAttack) {
      fit.threshold *= margin;
    } else {
      fit.threshold /= margin;
    }
  }
  return profile;
}

CalibrationProfile Scanner::generic_profile() {
  CalibrationProfile profile;
  for (const Method& method : methods(ScanConfig{})) {
    profile[method.detector->name()] = method.generic;
  }
  return profile;
}

}  // namespace decam::core
