// Tests for core::Scanner, the deployed detector: its records against the
// detectors and the ensemble it is built from, its input checks, and its
// calibration against calibrate_black_box on the same scores.
#include "core/scanner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "obs/memstats.h"
#include "runtime/parallel.h"

namespace decam::core {
namespace {

constexpr int kModelSide = 32;

ScanConfig config(const std::string& defense = "none",
                  bool short_circuit = false) {
  ScanConfig config;
  config.model_width = config.model_height = kModelSide;
  config.defense = DefenseChain::parse(defense);
  config.short_circuit = short_circuit;
  return config;
}

Image scene(std::uint64_t seed) {
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = 72;
  params.max_side = 96;
  data::Rng rng(seed);
  return data::generate_scene(params, rng);
}

// The reference: the three methods built by hand, in vote order, wrapped in
// `config.defense`, with thresholds from `profile`.
EnsembleDetector reference(const ScanConfig& config,
                           const CalibrationProfile& profile) {
  ScalingDetectorConfig scaling;
  scaling.down_width = scaling.down_height = kModelSide;
  scaling.metric = Metric::MSE;
  FilteringDetectorConfig filtering;
  filtering.metric = Metric::SSIM;
  std::vector<EnsembleDetector::Member> members;
  for (const std::shared_ptr<const Detector>& method :
       std::vector<std::shared_ptr<const Detector>>{
           std::make_shared<ScalingDetector>(scaling),
           std::make_shared<FilteringDetector>(filtering),
           std::make_shared<SteganalysisDetector>()}) {
    std::shared_ptr<const Detector> detector = method;
    if (!config.defense.empty()) {
      detector = std::make_shared<DefendedDetector>(method, config.defense);
    }
    members.push_back({detector, profile.at(method->name())});
  }
  EnsembleDetector ensemble(std::move(members));
  ensemble.set_short_circuit(config.short_circuit);
  return ensemble;
}

// Thresholds that make the scaling and filtering members vote attack or
// benign on any image (MSE >= 0, SSIM in [-1, 1]).
CalibrationProfile forced(bool scaling_attack, bool filtering_attack) {
  CalibrationProfile profile = Scanner::generic_profile();
  profile["scaling/mse"].threshold = scaling_attack ? 0.0 : 1e300;
  profile["filtering/min/ssim"].threshold = filtering_attack ? 2.0 : -2.0;
  return profile;
}

TEST(Scanner, FullVoteScoresEqualEachDetectorBitForBit) {
  for (const char* defense : {"none", "squeeze4+jpeg75"}) {
    for (const CalibrationProfile& profile :
         {Scanner::generic_profile(), forced(true, false)}) {
      const ScanConfig scan_config = config(defense);
      const Scanner scanner(scan_config, profile);
      const EnsembleDetector ensemble = reference(scan_config, profile);
      const Image image = scene(1);
      const ScanRecord record = scanner.scan(image);
      ASSERT_TRUE(record.error.empty()) << record.error;
      ASSERT_EQ(record.members.size(), ensemble.members().size());
      std::vector<double> scores;
      std::vector<Calibration> calibrations;
      for (std::size_t i = 0; i < record.members.size(); ++i) {
        const EnsembleDetector::Member& member = ensemble.members()[i];
        const MemberRecord& got = record.members[i];
        const double expected = member.detector->score(image);
        EXPECT_EQ(got.name, member.detector->name());
        EXPECT_EQ(got.threshold, member.calibration.threshold);
        EXPECT_EQ(got.polarity, member.calibration.polarity);
        ASSERT_TRUE(got.score.has_value()) << defense << " " << got.name;
        EXPECT_EQ(*got.score, expected) << defense << " " << got.name;
        EXPECT_EQ(got.vote, is_attack(expected, member.calibration));
        scores.push_back(expected);
        calibrations.push_back(member.calibration);
      }
      EXPECT_EQ(record.attack, majority_vote(scores, calibrations));
    }
  }
}

TEST(Scanner, ShortCircuitEqualsEnsembleDecide) {
  const Image image = scene(2);
  for (const bool scaling_attack : {false, true}) {
    for (const bool filtering_attack : {false, true}) {
      const CalibrationProfile profile =
          forced(scaling_attack, filtering_attack);
      const ScanConfig scan_config = config("none", true);
      const ScanRecord record = Scanner(scan_config, profile).scan(image);
      const EnsembleDetector::Decision decision =
          reference(scan_config, profile).decide(image);
      EXPECT_EQ(record.attack, decision.attack);
      ASSERT_EQ(record.members.size(), decision.scores.size());
      for (std::size_t i = 0; i < record.members.size(); ++i) {
        EXPECT_EQ(record.members[i].score, decision.scores[i]);
        EXPECT_EQ(record.members[i].vote, decision.votes[i]);
      }
      // The short circuit skips CSP exactly when the first two agree.
      EXPECT_EQ(record.members[2].score.has_value(),
                scaling_attack != filtering_attack);
    }
  }
}

TEST(Scanner, ScoredMembersReportTimeAndSkippedOnesNothing) {
  // Both spatial members vote benign, so the short circuit skips CSP.
  const ScanRecord record =
      Scanner(config("none", true), forced(false, false)).scan(scene(3));
  ASSERT_TRUE(record.error.empty());
  ASSERT_EQ(record.members.size(), 3u);
  double total_ms = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(record.members[i].ms.has_value());
    EXPECT_GT(*record.members[i].ms, 0.0);
    total_ms += *record.members[i].ms;
  }
  const MemberRecord& skipped = record.members[2];
  EXPECT_EQ(skipped.name, "steganalysis/csp");
  EXPECT_FALSE(skipped.score.has_value());
  EXPECT_FALSE(skipped.vote.has_value());
  EXPECT_FALSE(skipped.ms.has_value());
  EXPECT_EQ(record.total_ms, total_ms);
  EXPECT_FALSE(record.attack);
}

TEST(Scanner, ProfileWithoutAMemberNamesIt) {
  CalibrationProfile profile = Scanner::generic_profile();
  profile.erase("filtering/min/ssim");
  try {
    const Scanner scanner(config(), profile);
    FAIL() << "a profile without filtering/min/ssim was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("filtering/min/ssim"),
              std::string::npos)
        << error.what();
  }
}

TEST(Scanner, ProfileWithoutCspUsesTheUniversalThreshold) {
  CalibrationProfile profile = Scanner::generic_profile();
  profile.erase("steganalysis/csp");
  const ScanRecord record = Scanner(config(), profile).scan(scene(4));
  EXPECT_EQ(record.members[2].threshold, 2.0);
  EXPECT_EQ(record.members[2].polarity, Polarity::HighIsAttack);
}

TEST(Scanner, ImageNotLargerThanTheModelInputGetsAnErrorRecord) {
  const Scanner scanner(config(), Scanner::generic_profile());
  for (const auto& [width, height] :
       {std::pair{8, 8}, std::pair{1, 500}, std::pair{kModelSide, 100},
        std::pair{100, kModelSide}}) {
    const ScanRecord record = scanner.scan(Image(width, height, 3, 128.0f));
    const std::string size =
        std::to_string(width) + "x" + std::to_string(height);
    EXPECT_EQ(record.error, "image " + size + " is not larger than the 32x32 "
                            "model input");
    EXPECT_FALSE(record.attack);
    for (const MemberRecord& member : record.members) {
      EXPECT_FALSE(member.score.has_value());
    }
  }
}

TEST(Scanner, ScanFromPoolLanesEqualsSerialScan) {
  const Scanner scanner(config("none", true), forced(true, false));
  std::vector<Image> images;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    images.push_back(scene(seed));
  }
  runtime::ThreadPool pool(4);
  const std::vector<ScanRecord> parallel = runtime::parallel_map(
      pool, images, [&](const Image& image) { return scanner.scan(image); });
  for (std::size_t i = 0; i < images.size(); ++i) {
    const ScanRecord serial = scanner.scan(images[i]);
    EXPECT_EQ(parallel[i].attack, serial.attack);
    for (std::size_t m = 0; m < serial.members.size(); ++m) {
      EXPECT_EQ(parallel[i].members[m].score, serial.members[m].score);
    }
  }
}

// What calibrate() must equal: calibrate_black_box over the reference
// members' scores of the same images.
Calibration fit(const Detector& detector, const std::vector<Image>& images,
                double percentile, Polarity polarity) {
  std::vector<double> scores;
  for (const Image& image : images) scores.push_back(detector.score(image));
  return calibrate_black_box(scores, percentile, polarity);
}

TEST(ScannerCalibrate, EqualsBlackBoxOnTheSameScoresThenAppliesTheMargin) {
  std::vector<Image> benign;
  for (std::uint64_t seed = 20; seed < 25; ++seed) {
    benign.push_back(scene(seed));
  }
  const auto load = [&](std::size_t i) { return benign[i]; };
  const EnsembleDetector ensemble =
      reference(config(), Scanner::generic_profile());
  const Calibration scaling = fit(*ensemble.members()[0].detector, benign,
                                  20.0, Polarity::HighIsAttack);
  const Calibration filtering = fit(*ensemble.members()[1].detector, benign,
                                    20.0, Polarity::LowIsAttack);

  const CalibrationProfile plain =
      Scanner::calibrate(config(), benign.size(), load, 20.0);
  ASSERT_EQ(plain.size(), 3u);
  EXPECT_EQ(plain.at("scaling/mse").threshold, scaling.threshold);
  EXPECT_EQ(plain.at("scaling/mse").polarity, Polarity::HighIsAttack);
  EXPECT_EQ(plain.at("filtering/min/ssim").threshold, filtering.threshold);
  EXPECT_EQ(plain.at("filtering/min/ssim").polarity, Polarity::LowIsAttack);
  EXPECT_EQ(plain.at("steganalysis/csp").threshold, 2.0);

  // The margin widens away from the benign side: up for high-is-attack,
  // down for low-is-attack; CSP stays fixed.
  const CalibrationProfile widened =
      Scanner::calibrate(config(), benign.size(), load, 20.0, 4.0);
  EXPECT_EQ(widened.at("scaling/mse").threshold, scaling.threshold * 4.0);
  EXPECT_EQ(widened.at("filtering/min/ssim").threshold,
            filtering.threshold / 4.0);
  EXPECT_EQ(widened.at("steganalysis/csp").threshold, 2.0);
}

TEST(ScannerCalibrate, ScoresThroughTheDefenseChain) {
  std::vector<Image> benign;
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    benign.push_back(scene(seed));
  }
  const ScanConfig defended = config("median3");
  const EnsembleDetector ensemble =
      reference(defended, Scanner::generic_profile());
  const CalibrationProfile profile = Scanner::calibrate(
      defended, benign.size(), [&](std::size_t i) { return benign[i]; }, 25.0);
  // Keyed by the method name, fitted on the defended scores.
  EXPECT_EQ(profile.at("scaling/mse").threshold,
            fit(*ensemble.members()[0].detector, benign, 25.0,
                Polarity::HighIsAttack)
                .threshold);
  EXPECT_EQ(profile.at("filtering/min/ssim").threshold,
            fit(*ensemble.members()[1].detector, benign, 25.0,
                Polarity::LowIsAttack)
                .threshold);
  const CalibrationProfile raw = Scanner::calibrate(
      config(), benign.size(), [&](std::size_t i) { return benign[i]; }, 25.0);
  EXPECT_NE(profile.at("scaling/mse").threshold,
            raw.at("scaling/mse").threshold);
}

TEST(ScannerCalibrate, RejectsBadPercentileOrMarginBeforeLoading) {
  std::atomic<int> loads{0};
  const auto load = [&](std::size_t) {
    ++loads;
    return scene(1);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double percentile : {0.0, -1.0, 50.5, nan}) {
    EXPECT_THROW(Scanner::calibrate(config(), 3, load, percentile),
                 std::invalid_argument)
        << percentile;
  }
  for (const double margin : {0.5, 0.0, -2.0, nan}) {
    EXPECT_THROW(Scanner::calibrate(config(), 3, load, 5.0, margin),
                 std::invalid_argument)
        << margin;
  }
  EXPECT_EQ(loads.load(), 0);
}

double memory_gauge(const std::string& source) {
  obs::sample_memory_gauges();
  return obs::MetricsRegistry::instance()
      .gauge("mem/" + source + "_bytes")
      .value();
}

// The deployed members' stages over a 1024x768 RGB image hold the round
// trip's 224² downscale and the spectrum stage, nothing for the minimum
// filter: the full-resolution round trip and filtered planes are produced
// row by row inside the reductions. A scan leaves the context gauge where
// it found it, and the scratch that replaced the planes is counted.
TEST(Scanner, DeployedStagesHoldNoFullResolutionPlane) {
  Image image(1024, 768, 3);
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        image.at(x, y, c) = static_cast<float>((7 * x + 13 * y + 29 * c) % 256);
      }
    }
  }
  const ScanConfig deployed;
  AnalysisContextSpec spec;
  ScalingDetector({.down_width = deployed.model_width,
                   .down_height = deployed.model_height})
      .prime(spec);
  FilteringDetector({}).prime(spec);
  SteganalysisDetector().prime(spec);
  const double downscale = 224.0 * 224.0 * 3.0 * sizeof(float);
  const double spectrum = 768.0 * (1024 / 2 + 1) * sizeof(double);
  const double before = memory_gauge("analysis_context");
  {
    AnalysisContext context(image, spec, AnalysisContext::Build::Deferred);
    context.ensure(AnalysisStage::RoundTrip);
    context.ensure(AnalysisStage::Filter);
    EXPECT_EQ(memory_gauge("analysis_context") - before, downscale);
    for (const AnalysisStage stage : analysis_plan(spec)) {
      context.ensure(stage);
    }
    EXPECT_EQ(memory_gauge("analysis_context") - before,
              downscale + spectrum);
  }
  EXPECT_EQ(memory_gauge("analysis_context"), before);

  const Scanner scanner(deployed, Scanner::generic_profile());
  const ScanRecord record = scanner.scan(image);
  ASSERT_TRUE(record.error.empty()) << record.error;
  EXPECT_EQ(memory_gauge("analysis_context"), before);
  // The upscale's horizontal pass (1024 x 224 x 3 floats), the 2-row
  // minimum ring and its output row, and the SSIM walk's ring.
  EXPECT_GE(memory_gauge("resize_scratch"), 1024.0 * 224 * 3 * sizeof(float));
  EXPECT_GE(memory_gauge("rank_scratch"), 3.0 * 1024 * sizeof(float));
  EXPECT_GT(memory_gauge("pair_stats_workspace"), 11.0 * 1024 * 5);
}

}  // namespace
}  // namespace decam::core
