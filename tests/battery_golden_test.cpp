// Golden per-image battery scores, pinned bit-for-bit.
//
// The rows below were captured from the pre-fusion implementation (separate
// mse() / ssim() / psnr() reductions, one pass each). The fused pair-stats
// pass (src/metrics/fused.cpp) promises bit-identical results — not merely
// close ones — because every accumulator preserves the reference
// floating-point addition order. EXPECT_EQ on doubles holds that promise to
// account, at one worker thread and at four (per-image scoring must not
// depend on the pool), and with the ensemble short circuit on and off. The
// battery and the standalone detectors share one scoring path, so each
// detector scored alone must reproduce its column too.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/histogram_detector.h"
#include "core/pipeline.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "metrics/ssim.h"
#include "obs/metrics.h"
#include "reference_kernels.h"
#include "runtime/parallel.h"

namespace decam {
namespace {

struct GoldenRow {
  int width;
  int height;
  double values[8];  // row_header() order
};

// Captured at seed state (commit bf7edb9): 24x24 CNN geometry, Regime A
// scenes 72..96 px, data::Rng(2026), four scenes drawn in sequence.
const GoldenRow kGolden[] = {
    {81, 84,
     {3.1946383228719815, 0.98657275541471501, 43.086586637168679,
      7.1130707427003728, 0.98539203291011079, 39.610232328938572, 1,
      0.97932282480893607}},
    {85, 87,
     {5.217055056991251, 0.98218926725221156, 40.956549408943715,
      13.920351588911426, 0.98044073566642709, 36.694301563982648, 1,
      0.96921296296296278}},
    {94, 94,
     {18.607354943271304, 0.94680278870795875, 35.433957188056347,
      16.668892409838538, 0.97325145632309373, 35.911736174451867, 1,
      0.96012576915983461}},
    {88, 90,
     {1.1383306385411911, 0.99209463613642479, 47.568119356825335,
      1.3106481481481482, 0.99464093665538611, 46.955942426537376, 1,
      0.97696759259259258}},
};

core::Battery golden_battery() {
  core::ExperimentConfig config;
  config.target_width = config.target_height = 24;
  return core::Battery(config);
}

// The exact scene sequence the goldens were captured from. Scenes are drawn
// serially (the Rng stream defines them); scoring may then fan out.
std::vector<Image> golden_scenes() {
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = 72;
  params.max_side = 96;
  data::Rng rng(2026);
  std::vector<Image> scenes;
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    scenes.push_back(generate_scene(params, rng));
  }
  return scenes;
}

void expect_rows_match_golden(const std::vector<core::ScoreRow>& rows) {
  ASSERT_EQ(rows.size(), std::size(kGolden));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenRow& golden = kGolden[i];
    EXPECT_EQ(rows[i].scaling_mse, golden.values[0]) << "row " << i;
    EXPECT_EQ(rows[i].scaling_ssim, golden.values[1]) << "row " << i;
    EXPECT_EQ(rows[i].scaling_psnr, golden.values[2]) << "row " << i;
    EXPECT_EQ(rows[i].filtering_mse, golden.values[3]) << "row " << i;
    EXPECT_EQ(rows[i].filtering_ssim, golden.values[4]) << "row " << i;
    EXPECT_EQ(rows[i].filtering_psnr, golden.values[5]) << "row " << i;
    EXPECT_EQ(rows[i].csp, golden.values[6]) << "row " << i;
    EXPECT_EQ(rows[i].histogram, golden.values[7]) << "row " << i;
  }
}

std::vector<core::ScoreRow> score_all(const std::vector<Image>& scenes,
                                      int threads) {
  runtime::set_thread_count(threads);
  const core::Battery battery = golden_battery();
  return runtime::parallel_map(
      scenes, [&](const Image& scene) { return battery.score(scene); });
}

TEST(BatteryGolden, SceneGeometryMatchesCapture) {
  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    EXPECT_EQ(scenes[i].width(), kGolden[i].width) << "scene " << i;
    EXPECT_EQ(scenes[i].height(), kGolden[i].height) << "scene " << i;
  }
}

TEST(BatteryGolden, ScoresBitIdenticalSingleThread) {
  expect_rows_match_golden(score_all(golden_scenes(), 1));
}

TEST(BatteryGolden, ScoresBitIdenticalFourThreads) {
  expect_rows_match_golden(score_all(golden_scenes(), 4));
}

// The ensemble short circuit skips detectors, never rescores them: on the
// members it does evaluate, scores must equal the short-circuit-off run
// bit for bit, and the verdict must match.
TEST(BatteryGolden, ShortCircuitPreservesEvaluatedScores) {
  runtime::set_thread_count(1);
  core::ScalingDetectorConfig scaling_config;
  scaling_config.down_width = scaling_config.down_height = 24;
  std::vector<core::EnsembleDetector::Member> members = {
      {std::make_shared<core::ScalingDetector>(scaling_config),
       core::Calibration{500.0, core::Polarity::HighIsAttack, 0.0}},
      {std::make_shared<core::FilteringDetector>(
           core::FilteringDetectorConfig{}),
       core::Calibration{100.0, core::Polarity::HighIsAttack, 0.0}},
      {std::make_shared<core::SteganalysisDetector>(),
       core::Calibration{2.0, core::Polarity::HighIsAttack, 0.0}},
  };
  core::EnsembleDetector fast{members};
  core::EnsembleDetector full{members};
  full.set_short_circuit(false);
  for (const Image& scene : golden_scenes()) {
    const auto fast_decision = fast.decide(scene);
    const auto full_decision = full.decide(scene);
    EXPECT_EQ(fast_decision.attack, full_decision.attack);
    EXPECT_EQ(full_decision.evaluated, members.size());
    ASSERT_EQ(fast_decision.scores.size(), full_decision.scores.size());
    for (std::size_t i = 0; i < fast_decision.scores.size(); ++i) {
      if (!fast_decision.scores[i].has_value()) continue;  // skipped
      EXPECT_EQ(*fast_decision.scores[i], *full_decision.scores[i])
          << "member " << i;
    }
  }
}

// One scoring path: each detector scored on its own reproduces its battery
// column bit for bit (the battery's fused pass and a lone member's mse() or
// ssim() agree exactly).
TEST(BatteryGolden, StandaloneDetectorsMatchGoldenColumns) {
  runtime::set_thread_count(1);
  core::ScalingDetectorConfig scaling;
  scaling.down_width = scaling.down_height = 24;
  core::FilteringDetectorConfig filtering;  // the paper's 2x2 minimum filter
  core::HistogramDetectorConfig histogram;
  histogram.down_width = histogram.down_height = 24;
  std::vector<std::pair<std::shared_ptr<const core::Detector>, int>> columns;
  for (const core::Metric metric : {core::Metric::MSE, core::Metric::SSIM}) {
    scaling.metric = filtering.metric = metric;
    const int offset = metric == core::Metric::MSE ? 0 : 1;
    columns.emplace_back(std::make_shared<core::ScalingDetector>(scaling),
                         offset);
    columns.emplace_back(std::make_shared<core::FilteringDetector>(filtering),
                         3 + offset);
  }
  columns.emplace_back(std::make_shared<core::SteganalysisDetector>(), 6);
  columns.emplace_back(std::make_shared<core::HistogramDetector>(histogram), 7);

  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    for (const auto& [detector, column] : columns) {
      EXPECT_EQ(detector->score(scenes[i]), kGolden[i].values[column])
          << detector->name() << " row " << i;
    }
  }
}

// A member whose stages the shared context does not cover (here a second
// CNN geometry: the ensemble's spec holds the last member's) scores a
// private context instead; decide() must return what each member gives
// alone.
TEST(BatteryGolden, MixedGeometryEnsembleMatchesStandaloneScores) {
  runtime::set_thread_count(1);
  std::vector<core::EnsembleDetector::Member> members;
  for (const int side : {24, 32}) {
    core::ScalingDetectorConfig config;
    config.down_width = config.down_height = side;
    members.push_back({std::make_shared<core::ScalingDetector>(config),
                       core::Calibration{500.0, core::Polarity::HighIsAttack,
                                         0.0}});
  }
  core::EnsembleDetector ensemble{members};
  ensemble.set_short_circuit(false);
  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const auto decision = ensemble.decide(scenes[i]);
    ASSERT_EQ(decision.evaluated, members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      EXPECT_EQ(*decision.scores[m], members[m].detector->score(scenes[i]))
          << "member " << m << " row " << i;
    }
    EXPECT_EQ(*decision.scores[0], kGolden[i].values[0]) << "row " << i;
  }
}

// The histogram baseline reads the downscale alone, so it shares the
// scaling member's downscale even when the reconstruction scalers differ:
// one round-trip stage build per image, and the histogram column holds.
TEST(BatteryGolden, HistogramSharesTheDownscaleAcrossUpScalers) {
  runtime::set_thread_count(1);
  core::HistogramDetectorConfig histogram;
  histogram.down_width = histogram.down_height = 24;
  core::ScalingDetectorConfig scaling;
  scaling.down_width = scaling.down_height = 24;
  scaling.up_algo = ScaleAlgo::Bicubic;
  const core::Calibration any{0.0, core::Polarity::HighIsAttack, 0.0};
  core::EnsembleDetector ensemble{
      {{std::make_shared<core::HistogramDetector>(histogram), any},
       {std::make_shared<core::ScalingDetector>(scaling), any}}};
  ensemble.set_short_circuit(false);
  const obs::Histogram& builds =
      obs::MetricsRegistry::instance().histogram("context/round_trip");
  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const std::uint64_t before = builds.count();
    const auto decision = ensemble.decide(scenes[i]);
    EXPECT_EQ(builds.count(), before + 1) << "row " << i;
    EXPECT_EQ(*decision.scores[0], kGolden[i].values[7]) << "row " << i;
  }
}

// A median filtering detector on an 8-bit-quantised scene takes the
// histogram median path (the grid every decoded scan image is on); its
// score must equal the naive sorted-window reference bit for bit, under
// native and forced-scalar dispatch alike.
TEST(BatteryGolden, MedianGridPathScoresBitIdentical) {
  runtime::set_thread_count(1);
  core::FilteringDetectorConfig config;
  config.window = 3;
  config.op = RankOp::Median;
  const core::FilteringDetector detector(config);
  const simd::Isa startup = simd::active_isa();
  for (const Image& scene : golden_scenes()) {
    const Image quantised = Image::from_u8(scene.to_u8(), scene.width(),
                                           scene.height(), scene.channels());
    ASSERT_EQ(classify_median_path(quantised), MedianPath::Grid8);
    const double want =
        ssim(quantised, testref::rank_filter(quantised, 3, RankOp::Median));
    EXPECT_EQ(detector.score(quantised), want);
    simd::set_active_isa(simd::Isa::Scalar);
    EXPECT_EQ(detector.score(quantised), want);
    simd::set_active_isa(startup);
  }
}

}  // namespace
}  // namespace decam
