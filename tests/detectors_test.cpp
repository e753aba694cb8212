// Behavioural tests of the three Decamouflage detectors plus the histogram
// baseline: benign vs attack score separation on small synthetic fixtures.
#include <gtest/gtest.h>

#include "attack/scale_attack.h"
#include "core/filtering_detector.h"
#include "core/histogram_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"

namespace decam::core {
namespace {

struct Pair {
  Image benign;
  Image attack;
};

// Small but realistic fixture: 128px scene, 32px target, bilinear attack.
// Tail cases (halftone stripes, flat frames) are disabled: they are the
// EXPECTED false-positive sources (see HalftoneTail tests below); these
// fixtures validate behaviour on typical photographs.
Pair make_pair(std::uint64_t seed) {
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 128;
  params.detail_probability = 0.0;
  params.flat_probability = 0.0;
  data::Rng scene_rng(seed);
  data::Rng target_rng(seed + 77);
  const Image scene = generate_scene(params, scene_rng);
  const Image target = data::generate_target(32, 32, target_rng);
  attack::AttackOptions options;
  options.algo = ScaleAlgo::Bilinear;
  options.eps = 2.0;
  return {scene, attack::craft_attack(scene, target, options).image};
}

ScalingDetectorConfig scaling_config(Metric metric) {
  ScalingDetectorConfig config;
  config.down_width = config.down_height = 32;
  config.metric = metric;
  return config;
}

TEST(ScalingDetector, MseSeparatesBenignFromAttack) {
  const ScalingDetector detector{scaling_config(Metric::MSE)};
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Pair pair = make_pair(seed);
    EXPECT_GT(detector.score(pair.attack), 3.0 * detector.score(pair.benign))
        << "seed " << seed;
  }
}

TEST(ScalingDetector, SsimSeparatesBenignFromAttack) {
  const ScalingDetector detector{scaling_config(Metric::SSIM)};
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    const Pair pair = make_pair(seed);
    EXPECT_LT(detector.score(pair.attack), detector.score(pair.benign) - 0.1)
        << "seed " << seed;
  }
}

TEST(ScalingDetector, RoundTripHasInputGeometry) {
  const ScalingDetector detector{scaling_config(Metric::MSE)};
  const Pair pair = make_pair(7);
  const Image round = detector.round_trip(pair.benign);
  EXPECT_TRUE(round.same_shape(pair.benign));
}

TEST(ScalingDetector, RejectsInputsSmallerThanTarget) {
  const ScalingDetector detector{scaling_config(Metric::MSE)};
  const Image small(16, 16, 3);
  EXPECT_THROW(detector.score(small), std::invalid_argument);
  // Every entry point shares the check, a shared context included.
  AnalysisContextSpec spec;
  detector.prime(spec);
  AnalysisContext context(small, spec);
  EXPECT_THROW(detector.score(context), std::invalid_argument);
  EXPECT_THROW(detector.metrics(context), std::invalid_argument);
}

TEST(ScalingDetector, ConfigValidation) {
  ScalingDetectorConfig bad;
  bad.down_width = 0;
  EXPECT_THROW(ScalingDetector{bad}, std::invalid_argument);
  bad = {};
  bad.metric = Metric::CSP;
  EXPECT_THROW(ScalingDetector{bad}, std::invalid_argument);
}

TEST(ScalingDetector, NameEncodesMetric) {
  EXPECT_EQ(ScalingDetector{scaling_config(Metric::MSE)}.name(),
            "scaling/mse");
  EXPECT_EQ(ScalingDetector{scaling_config(Metric::SSIM)}.name(),
            "scaling/ssim");
}

TEST(FilteringDetector, MseSeparatesBenignFromAttack) {
  FilteringDetectorConfig config;
  config.metric = Metric::MSE;
  const FilteringDetector detector{config};
  for (std::uint64_t seed : {8ull, 9ull}) {
    const Pair pair = make_pair(seed);
    EXPECT_GT(detector.score(pair.attack), 1.5 * detector.score(pair.benign))
        << "seed " << seed;
  }
}

TEST(FilteringDetector, SsimSeparatesBenignFromAttack) {
  FilteringDetectorConfig config;
  config.metric = Metric::SSIM;
  const FilteringDetector detector{config};
  for (std::uint64_t seed : {10ull, 11ull}) {
    const Pair pair = make_pair(seed);
    EXPECT_LT(detector.score(pair.attack), detector.score(pair.benign) - 0.05)
        << "seed " << seed;
  }
}

TEST(FilteringDetector, FilteredImageMatchesMinFilter) {
  FilteringDetectorConfig config;
  const FilteringDetector detector{config};
  const Pair pair = make_pair(12);
  const Image f = detector.filtered(pair.benign);
  const Image expected = min_filter(pair.benign, config.window);
  EXPECT_TRUE(f.same_shape(expected));
  EXPECT_FLOAT_EQ(f.at(5, 5, 0), expected.at(5, 5, 0));
}

TEST(FilteringDetector, NameEncodesOpAndMetric) {
  FilteringDetectorConfig config;
  config.metric = Metric::SSIM;
  EXPECT_EQ(FilteringDetector{config}.name(), "filtering/min/ssim");
  config.op = RankOp::Max;
  config.metric = Metric::MSE;
  EXPECT_EQ(FilteringDetector{config}.name(), "filtering/max/mse");
}

TEST(FilteringDetector, ConfigValidation) {
  FilteringDetectorConfig bad;
  bad.window = 0;
  EXPECT_THROW(FilteringDetector{bad}, std::invalid_argument);
  bad = {};
  bad.metric = Metric::CSP;
  EXPECT_THROW(FilteringDetector{bad}, std::invalid_argument);
}

TEST(SteganalysisDetector, BenignImagesHaveOneCsp) {
  const SteganalysisDetector detector{};
  for (std::uint64_t seed : {13ull, 14ull, 15ull, 16ull}) {
    const Pair pair = make_pair(seed);
    EXPECT_EQ(detector.count_csp(pair.benign), 1) << "seed " << seed;
  }
}

TEST(SteganalysisDetector, AttackImagesHaveMultipleCsp) {
  const SteganalysisDetector detector{};
  for (std::uint64_t seed : {17ull, 18ull, 19ull, 20ull}) {
    const Pair pair = make_pair(seed);
    EXPECT_GE(detector.count_csp(pair.attack), 2) << "seed " << seed;
  }
}

TEST(SteganalysisDetector, ScoreEqualsCount) {
  const SteganalysisDetector detector{};
  const Pair pair = make_pair(21);
  EXPECT_DOUBLE_EQ(detector.score(pair.benign),
                   static_cast<double>(detector.count_csp(pair.benign)));
}

TEST(SteganalysisDetector, BinarySpectrumIsBinaryAndInputSized) {
  const SteganalysisDetector detector{};
  const Pair pair = make_pair(22);
  const Image binary = detector.binary_spectrum(pair.attack);
  EXPECT_EQ(binary.width(), pair.attack.width());
  EXPECT_EQ(binary.height(), pair.attack.height());
  EXPECT_EQ(binary.channels(), 1);
  for (int y = 0; y < binary.height(); y += 11) {
    for (int x = 0; x < binary.width(); x += 11) {
      const float v = binary.at(x, y, 0);
      EXPECT_TRUE(v == 0.0f || v == 255.0f);
    }
  }
}

TEST(SteganalysisDetector, ConfigValidation) {
  SteganalysisDetectorConfig bad;
  bad.radius_fraction = 0.0;
  EXPECT_THROW(SteganalysisDetector{bad}, std::invalid_argument);
  bad = {};
  bad.binarize_k = 0.0;
  EXPECT_THROW(SteganalysisDetector{bad}, std::invalid_argument);
  bad = {};
  bad.min_blob_area = -1;
  EXPECT_THROW(SteganalysisDetector{bad}, std::invalid_argument);
}

TEST(HistogramDetector, ScoresAreValidSimilaritiesWithExpectedDirection) {
  // The baseline the paper rejects. On our synthetic scenes the direction
  // is as expected (attack downscales have a different histogram), but the
  // paper's point — that the metric is unreliable and evadable — is shown
  // by the histogram-preserving adaptive attack in the ablation bench, not
  // by this unit test.
  HistogramDetectorConfig config;
  config.down_width = config.down_height = 32;
  const HistogramDetector detector{config};
  const Pair pair = make_pair(23);
  const double benign_score = detector.score(pair.benign);
  const double attack_score = detector.score(pair.attack);
  EXPECT_GE(benign_score, 0.0);
  EXPECT_LE(benign_score, 1.0 + 1e-12);
  EXPECT_GE(attack_score, 0.0);
  EXPECT_LE(attack_score, 1.0 + 1e-12);
  EXPECT_LT(attack_score, benign_score);
}

TEST(HistogramDetector, Name) {
  HistogramDetectorConfig config;
  EXPECT_EQ(HistogramDetector{config}.name(), "histogram/intersection");
}

TEST(HalftoneTail, StripedBenignImagesCanFakeCspHarmonics) {
  // A benign image containing a strong fine-period stripe field has real
  // periodic energy — the CSP detector may legitimately see >1 centered
  // spectrum point. This is the false-positive class behind the paper's
  // 1.7% steganalysis FRR; the ensemble absorbs it (the other two methods
  // still vote benign).
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 128;
  params.detail_probability = 0.0;
  params.flat_probability = 0.0;
  data::Rng rng(41);
  Image scene = generate_scene(params, rng);
  // Strong stripes of period 3 over a bounded region (a blind or scanned
  // print); the finite window spreads each harmonic into a visible blob.
  for (int y = 24; y < 112; ++y) {
    for (int x = 16; x < 104; ++x) {
      const float delta = (x % 3 == 0) ? 40.0f : -20.0f;
      for (int c = 0; c < 3; ++c) scene.at(x, y, c) += delta;
    }
  }
  scene.clamp();
  const SteganalysisDetector steg{};
  EXPECT_GE(steg.count_csp(scene), 2);  // stripes look periodic — expected

  // The spatial-domain methods still score it as benign-like: its round
  // trip is lossy but nowhere near attack levels.
  ScalingDetectorConfig config;
  config.down_width = config.down_height = 32;
  config.metric = Metric::MSE;
  const ScalingDetector scaling{config};
  const Pair reference = make_pair(42);
  EXPECT_LT(scaling.score(scene), 0.5 * scaling.score(reference.attack));
}

TEST(MetricNames, ToString) {
  EXPECT_STREQ(to_string(Metric::MSE), "mse");
  EXPECT_STREQ(to_string(Metric::SSIM), "ssim");
  EXPECT_STREQ(to_string(Metric::CSP), "csp");
}

}  // namespace
}  // namespace decam::core
