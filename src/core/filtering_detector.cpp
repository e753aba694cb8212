#include "core/filtering_detector.h"

#include "metrics/mse.h"
#include "metrics/ssim.h"
#include "obs/span.h"

namespace decam::core {

FilteringDetector::FilteringDetector(FilteringDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.window >= 1, "filter window must be >= 1");
  DECAM_REQUIRE(config.metric == Metric::MSE || config.metric == Metric::SSIM,
                "filtering detector uses MSE or SSIM");
}

Image FilteringDetector::filtered(const Image& input) const {
  return rank_filter(input, config_.window, config_.op);
}

double FilteringDetector::reduce(const AnalysisContext& context) const {
  DECAM_SPAN(config_.metric == Metric::MSE ? "detector/filtering/mse"
                                           : "detector/filtering/ssim");
  const Image& input = context.input();
  return config_.metric == Metric::MSE ? mse(input, context.filtered())
                                       : ssim(input, context.filtered());
}

PairStats FilteringDetector::metrics(AnalysisContext& context) const {
  std::optional<AnalysisContext> own;
  const AnalysisContext& stages = staged(context, own);
  return pair_stats(stages.input(), stages.filtered());
}

void FilteringDetector::prime(AnalysisContextSpec& spec) const {
  spec.filter_window = config_.window;
  spec.filter_op = config_.op;
}

std::string FilteringDetector::name() const {
  const char* op = config_.op == RankOp::Min
                       ? "min"
                       : (config_.op == RankOp::Max ? "max" : "median");
  return std::string("filtering/") + op + "/" + to_string(config_.metric);
}

}  // namespace decam::core
