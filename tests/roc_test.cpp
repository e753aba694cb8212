// Tests for ROC curve construction and AUC.
#include "core/roc.h"

#include <gtest/gtest.h>

#include "data/rng.h"

namespace decam::core {
namespace {

TEST(Roc, PerfectSeparationGivesAucOne) {
  const std::vector<double> benign = {1.0, 2.0, 3.0};
  const std::vector<double> attack = {10.0, 11.0, 12.0};
  const RocCurve curve = roc_curve(benign, attack, Polarity::HighIsAttack);
  EXPECT_DOUBLE_EQ(curve.auc, 1.0);
  // The curve starts at (0, 0) and ends at (1, 1).
  EXPECT_DOUBLE_EQ(curve.points.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.points.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.points.back().false_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(curve.points.back().true_positive_rate, 1.0);
}

TEST(Roc, InvertedSeparationGivesAucZero) {
  // Attack scores LOWER but polarity declared HighIsAttack: worst case.
  const std::vector<double> benign = {10.0, 11.0};
  const std::vector<double> attack = {1.0, 2.0};
  const RocCurve curve = roc_curve(benign, attack, Polarity::HighIsAttack);
  EXPECT_DOUBLE_EQ(curve.auc, 0.0);
  // Declaring the correct polarity fixes it.
  const RocCurve fixed = roc_curve(benign, attack, Polarity::LowIsAttack);
  EXPECT_DOUBLE_EQ(fixed.auc, 1.0);
}

TEST(Roc, IdenticalDistributionsGiveHalf) {
  const std::vector<double> same = {1.0, 2.0, 3.0, 4.0};
  const RocCurve curve = roc_curve(same, same, Polarity::HighIsAttack);
  EXPECT_NEAR(curve.auc, 0.5, 1e-12);
}

TEST(Roc, AucMatchesMannWhitneyOnRandomData) {
  data::Rng rng(3);
  std::vector<double> benign(60), attack(50);
  for (double& v : benign) v = rng.next_gaussian();
  for (double& v : attack) v = rng.next_gaussian() + 1.0;
  const RocCurve curve = roc_curve(benign, attack, Polarity::HighIsAttack);
  // Brute-force U statistic.
  double u = 0.0;
  for (double a : attack) {
    for (double b : benign) {
      if (a > b) {
        u += 1.0;
      } else if (a == b) {
        u += 0.5;
      }
    }
  }
  const double expected = u / (attack.size() * benign.size());
  EXPECT_NEAR(curve.auc, expected, 1e-9);
}

TEST(Roc, TiesAcrossClassesHandled) {
  const std::vector<double> benign = {1.0, 2.0, 2.0};
  const std::vector<double> attack = {2.0, 3.0};
  const RocCurve curve = roc_curve(benign, attack, Polarity::HighIsAttack);
  // Mann-Whitney by hand: pairs (2 vs 1)=1, (2 vs 2)=.5, (2 vs 2)=.5,
  // (3 vs all)=3 -> 5 / 6.
  EXPECT_NEAR(curve.auc, 5.0 / 6.0, 1e-12);
}

TEST(Roc, MonotoneNonDecreasingCurve) {
  data::Rng rng(4);
  std::vector<double> benign(40), attack(40);
  for (double& v : benign) v = rng.next_double();
  for (double& v : attack) v = rng.next_double() + 0.3;
  const RocCurve curve = roc_curve(benign, attack, Polarity::HighIsAttack);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GE(curve.points[i].false_positive_rate,
              curve.points[i - 1].false_positive_rate);
    EXPECT_GE(curve.points[i].true_positive_rate,
              curve.points[i - 1].true_positive_rate);
  }
}

TEST(Roc, RejectsEmptyClasses) {
  const std::vector<double> some = {1.0};
  EXPECT_THROW(roc_curve({}, some, Polarity::HighIsAttack),
               std::invalid_argument);
  EXPECT_THROW(roc_curve(some, {}, Polarity::HighIsAttack),
               std::invalid_argument);
}

}  // namespace
}  // namespace decam::core
