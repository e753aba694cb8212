// Tests for the majority-vote ensemble using stub detectors with
// controllable scores, including the short-circuit voting path.
#include "core/ensemble.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "obs/metrics.h"

namespace decam::core {
namespace {

// Stub detector returning a fixed score regardless of input.
class FixedDetector final : public Detector {
 public:
  explicit FixedDetector(double score) : score_(score) {}
  std::string name() const override { return "fixed"; }

 private:
  double reduce(const AnalysisContext&) const override { return score_; }

  double score_;
};

EnsembleDetector::Member member(double score, double threshold,
                                Polarity polarity = Polarity::HighIsAttack) {
  return {std::make_shared<FixedDetector>(score),
          Calibration{threshold, polarity, 0.0}};
}

const Image kDummy(4, 4, 1, 0.0f);

TEST(Ensemble, UnanimousAttackVoteFlags) {
  const EnsembleDetector ensemble({member(10, 5), member(10, 5),
                                   member(10, 5)});
  EXPECT_TRUE(ensemble.decide(kDummy).attack);
}

TEST(Ensemble, MajorityWinsTwoToOne) {
  const EnsembleDetector ensemble({member(10, 5), member(10, 5),
                                   member(1, 5)});
  EXPECT_TRUE(ensemble.decide(kDummy).attack);
  const EnsembleDetector benign_majority({member(1, 5), member(1, 5),
                                          member(10, 5)});
  EXPECT_FALSE(benign_majority.decide(kDummy).attack);
}

TEST(Ensemble, TieCountsAsBenign) {
  // Even membership with a 1-1 split: not a strict majority.
  const EnsembleDetector ensemble({member(10, 5), member(1, 5)});
  EXPECT_FALSE(ensemble.decide(kDummy).attack);
}

TEST(Ensemble, MixedPolaritiesVoteCorrectly) {
  // An SSIM-like member (low = attack) agreeing with an MSE-like member.
  const EnsembleDetector ensemble(
      {member(10, 5, Polarity::HighIsAttack),
       member(0.2, 0.5, Polarity::LowIsAttack),
       member(1, 5, Polarity::HighIsAttack)});
  EXPECT_TRUE(ensemble.decide(kDummy).attack);
}

TEST(Ensemble, VotesExposeIndividualDecisions) {
  EnsembleDetector ensemble({member(10, 5), member(1, 5), member(7, 7)});
  ensemble.set_short_circuit(false);
  const EnsembleDetector::Decision decision = ensemble.decide(kDummy);
  ASSERT_EQ(decision.votes.size(), 3u);
  EXPECT_EQ(decision.votes[0], std::optional<bool>(true));
  EXPECT_EQ(decision.votes[1], std::optional<bool>(false));
  // score == threshold counts as attack
  EXPECT_EQ(decision.votes[2], std::optional<bool>(true));
}

TEST(Ensemble, VoteScoresBypassesDetectors) {
  const EnsembleDetector ensemble({member(0, 5), member(0, 5),
                                   member(0, 5)});
  const std::vector<double> attack_scores = {9.0, 9.0, 1.0};
  const std::vector<double> benign_scores = {1.0, 1.0, 9.0};
  EXPECT_TRUE(ensemble.vote_scores(attack_scores));
  EXPECT_FALSE(ensemble.vote_scores(benign_scores));
  EXPECT_THROW(ensemble.vote_scores(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Ensemble, SingleMemberActsAsThatDetector) {
  const EnsembleDetector ensemble({member(10, 5)});
  EXPECT_TRUE(ensemble.decide(kDummy).attack);
}

TEST(Ensemble, ValidatesConstruction) {
  EXPECT_THROW(EnsembleDetector({}), std::invalid_argument);
  std::vector<EnsembleDetector::Member> with_null;
  with_null.push_back({nullptr, Calibration{}});
  EXPECT_THROW(EnsembleDetector(std::move(with_null)), std::invalid_argument);
}

// Stub that counts how often it scores, to observe short-circuit skips.
class CountingDetector final : public Detector {
 public:
  CountingDetector(double score, std::string name)
      : score_(score), name_(std::move(name)) {}
  std::string name() const override { return name_; }

  mutable int calls = 0;

 private:
  double reduce(const AnalysisContext&) const override {
    ++calls;
    return score_;
  }

  double score_;
  std::string name_;
};

struct CountingEnsemble {
  std::vector<std::shared_ptr<CountingDetector>> detectors;
  EnsembleDetector ensemble;
};

// Members vote "attack" iff their fixed score exceeds threshold 5.
CountingEnsemble counting_ensemble(const std::vector<double>& scores) {
  std::vector<std::shared_ptr<CountingDetector>> detectors;
  std::vector<EnsembleDetector::Member> members;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    detectors.push_back(std::make_shared<CountingDetector>(
        scores[i], "stub" + std::to_string(i) + "/fixed"));
    members.push_back({detectors.back(), Calibration{5.0,
                                                     Polarity::HighIsAttack,
                                                     0.0}});
  }
  return {std::move(detectors), EnsembleDetector{std::move(members)}};
}

TEST(EnsembleShortCircuit, BenignMajoritySkipsLastMember) {
  CountingEnsemble ce = counting_ensemble({1, 1, 10});
  const EnsembleDetector::Decision decision = ce.ensemble.decide(kDummy);
  EXPECT_FALSE(decision.attack);
  EXPECT_EQ(decision.evaluated, 2u);
  ASSERT_EQ(decision.scores.size(), 3u);
  EXPECT_TRUE(decision.scores[0].has_value());
  EXPECT_TRUE(decision.scores[1].has_value());
  EXPECT_FALSE(decision.scores[2].has_value());
  EXPECT_FALSE(decision.votes[2].has_value());
  EXPECT_TRUE(decision.elapsed_ms[1].has_value());
  EXPECT_FALSE(decision.elapsed_ms[2].has_value());
  EXPECT_EQ(ce.detectors[2]->calls, 0);
}

TEST(EnsembleShortCircuit, AttackMajoritySkipsLastMember) {
  CountingEnsemble ce = counting_ensemble({10, 10, 1});
  const EnsembleDetector::Decision decision = ce.ensemble.decide(kDummy);
  EXPECT_TRUE(decision.attack);
  EXPECT_EQ(decision.evaluated, 2u);
  EXPECT_FALSE(decision.scores[2].has_value());
  EXPECT_EQ(ce.detectors[2]->calls, 0);
}

TEST(EnsembleShortCircuit, SplitVoteEvaluatesEveryMember) {
  CountingEnsemble ce = counting_ensemble({10, 1, 10});
  const EnsembleDetector::Decision decision = ce.ensemble.decide(kDummy);
  EXPECT_TRUE(decision.attack);
  EXPECT_EQ(decision.evaluated, 3u);
  for (const auto& d : ce.detectors) EXPECT_EQ(d->calls, 1);
}

TEST(EnsembleShortCircuit, FiveMembersSkipTwoOnUnanimousStart) {
  CountingEnsemble ce = counting_ensemble({1, 1, 1, 10, 10});
  const EnsembleDetector::Decision decision = ce.ensemble.decide(kDummy);
  // After three benign votes the two attack votes left cannot reach 3 of 5.
  EXPECT_FALSE(decision.attack);
  EXPECT_EQ(decision.evaluated, 3u);
  EXPECT_EQ(ce.detectors[3]->calls, 0);
  EXPECT_EQ(ce.detectors[4]->calls, 0);
}

TEST(EnsembleShortCircuit, DisablingEvaluatesEveryMember) {
  CountingEnsemble ce = counting_ensemble({1, 1, 10});
  ce.ensemble.set_short_circuit(false);
  const EnsembleDetector::Decision decision = ce.ensemble.decide(kDummy);
  EXPECT_FALSE(decision.attack);
  EXPECT_EQ(decision.evaluated, 3u);
  EXPECT_TRUE(decision.scores[2].has_value());
  EXPECT_EQ(ce.detectors[2]->calls, 1);
}

TEST(EnsembleShortCircuit, DecisionMatchesFullVoteOnEveryPattern) {
  // Exhaustive 3-member vote patterns: skipping must never flip the verdict.
  for (int pattern = 0; pattern < 8; ++pattern) {
    std::vector<double> scores;
    int attack_votes = 0;
    for (int bit = 0; bit < 3; ++bit) {
      const bool attack = ((pattern >> bit) & 1) != 0;
      scores.push_back(attack ? 10.0 : 1.0);
      attack_votes += attack ? 1 : 0;
    }
    CountingEnsemble ce = counting_ensemble(scores);
    const EnsembleDetector::Decision decision = ce.ensemble.decide(kDummy);
    EXPECT_EQ(decision.attack, attack_votes >= 2) << "pattern " << pattern;
    ce.ensemble.set_short_circuit(false);
    EXPECT_EQ(decision.attack, ce.ensemble.decide(kDummy).attack)
        << "pattern " << pattern;
    // The free vote rule over cached scores is the same rule.
    const std::vector<Calibration> calibrations(
        3, Calibration{5.0, Polarity::HighIsAttack, 0.0});
    EXPECT_EQ(majority_vote(scores, calibrations),
              ce.ensemble.vote_scores(scores))
        << "pattern " << pattern;
    EXPECT_EQ(majority_vote(scores, calibrations), decision.attack)
        << "pattern " << pattern;
  }
  // Even member count: a 2-2 tie is not a strict majority.
  const std::vector<Calibration> four(
      4, Calibration{5.0, Polarity::HighIsAttack, 0.0});
  EXPECT_FALSE(majority_vote(std::vector<double>{10, 10, 1, 1}, four));
  EXPECT_TRUE(majority_vote(std::vector<double>{10, 10, 10, 1}, four));
  EXPECT_THROW(majority_vote(std::vector<double>{10}, four),
               std::invalid_argument);
}

// decide(image) scores on a Deferred context: once the first two members
// vote benign, the steganalysis member is skipped and its FFT never runs.
TEST(EnsembleShortCircuit, IsAttackNeverBuildsASkippedMembersStage) {
  ScalingDetectorConfig scaling;
  scaling.down_width = scaling.down_height = 16;
  const EnsembleDetector ensemble(
      {{std::make_shared<ScalingDetector>(scaling),
        Calibration{1e9, Polarity::HighIsAttack, 0.0}},
       {std::make_shared<FilteringDetector>(FilteringDetectorConfig{}),
        Calibration{-2.0, Polarity::LowIsAttack, 0.0}},
       {std::make_shared<SteganalysisDetector>(),
        Calibration{0.0, Polarity::HighIsAttack, 0.0}}});
  Image image(48, 40, 3);
  for (int c = 0; c < image.channels(); ++c) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        image.at(x, y, c) = static_cast<float>(3 * x + 2 * y + 10 * c);
      }
    }
  }
  const obs::Histogram& spectrum =
      obs::MetricsRegistry::instance().histogram("context/spectrum");
  const std::uint64_t before = spectrum.count();
  EXPECT_FALSE(ensemble.decide(image).attack);
  EXPECT_EQ(spectrum.count(), before);
}

TEST(EnsembleShortCircuit, SkippedMembersCountInObsLayer) {
  auto& counter =
      obs::MetricsRegistry::instance().counter("battery/skip_stub2");
  const std::uint64_t before = counter.value();
  CountingEnsemble ce = counting_ensemble({1, 1, 10});
  (void)ce.ensemble.decide(kDummy);
  EXPECT_EQ(counter.value(), before + 1);
}

}  // namespace
}  // namespace decam::core
