#include "core/scaling_detector.h"

#include "metrics/mse.h"
#include "obs/span.h"

namespace decam::core {

ScalingDetector::ScalingDetector(ScalingDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.down_width > 0 && config.down_height > 0,
                "downscale geometry must be positive");
  DECAM_REQUIRE(config.metric == Metric::MSE || config.metric == Metric::SSIM,
                "scaling detector uses MSE or SSIM");
}

Image ScalingDetector::round_trip(const Image& input) const {
  return scale_round_trip(input, config_.down_width, config_.down_height,
                          config_.down_algo, config_.up_algo);
}

ResizeRows ScalingDetector::round_trip_rows(
    const AnalysisContext& context) const {
  const Image& input = context.input();
  DECAM_REQUIRE(input.width() > config_.down_width &&
                    input.height() > config_.down_height,
                "input must be larger than the CNN geometry");
  return ResizeRows(context.downscaled(), input.width(), input.height(),
                    config_.up_algo);
}

double ScalingDetector::reduce(const AnalysisContext& context) const {
  DECAM_SPAN(config_.metric == Metric::MSE ? "detector/scaling/mse"
                                           : "detector/scaling/ssim");
  ResizeRows round = round_trip_rows(context);
  return config_.metric == Metric::MSE
             ? mse(context.input(), round)
             : pair_stats(context.input(), round).ssim;
}

PairStats ScalingDetector::metrics(AnalysisContext& context) const {
  std::optional<AnalysisContext> own;
  const AnalysisContext& stages = staged(context, own);
  ResizeRows round = round_trip_rows(stages);
  return pair_stats(stages.input(), round);
}

void ScalingDetector::prime(AnalysisContextSpec& spec) const {
  spec.down_width = config_.down_width;
  spec.down_height = config_.down_height;
  spec.down_algo = config_.down_algo;
}

std::string ScalingDetector::name() const {
  return std::string("scaling/") + to_string(config_.metric);
}

}  // namespace decam::core
