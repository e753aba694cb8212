#include "core/scaling_detector.h"

#include "metrics/mse.h"
#include "metrics/ssim.h"
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

const Image& ScalingDetector::checked_round_trip(
    const AnalysisContext& context) const {
  DECAM_REQUIRE(context.input().width() > config_.down_width &&
                    context.input().height() > config_.down_height,
                "input must be larger than the CNN geometry");
  return context.round_trip();
}

double ScalingDetector::reduce(const AnalysisContext& context) const {
  DECAM_SPAN(config_.metric == Metric::MSE ? "detector/scaling/mse"
                                           : "detector/scaling/ssim");
  const Image& round = checked_round_trip(context);
  return config_.metric == Metric::MSE ? mse(context.input(), round)
                                       : ssim(context.input(), round);
}

PairStats ScalingDetector::metrics(AnalysisContext& context) const {
  std::optional<AnalysisContext> own;
  const AnalysisContext& stages = staged(context, own);
  return pair_stats(stages.input(), checked_round_trip(stages));
}

void ScalingDetector::prime(AnalysisContextSpec& spec) const {
  spec.down_width = config_.down_width;
  spec.down_height = config_.down_height;
  spec.down_algo = config_.down_algo;
  spec.up_algo = config_.up_algo;
}

std::string ScalingDetector::name() const {
  return std::string("scaling/") + to_string(config_.metric);
}

}  // namespace decam::core
