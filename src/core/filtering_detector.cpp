#include "core/filtering_detector.h"

#include "metrics/mse.h"
#include "obs/span.h"

namespace decam::core {

FilteringDetector::FilteringDetector(FilteringDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.window >= 1, "filter window must be >= 1");
  DECAM_REQUIRE(config.metric == Metric::MSE || config.metric == Metric::SSIM,
                "filtering detector uses MSE or SSIM");
  span_name_ = "detector/" + name();
}

Image FilteringDetector::filtered(const Image& input) const {
  return rank_filter(input, config_.window, config_.op);
}

template <typename Fn>
auto FilteringDetector::over_filtered(const AnalysisContext& context,
                                      Fn&& fn) const {
  if (config_.op == RankOp::Median) {
    PlaneRows filtered(context.filtered());
    return fn(filtered);
  }
  RankRows filtered(context.input(), config_.window, config_.op);
  return fn(filtered);
}

double FilteringDetector::reduce(const AnalysisContext& context) const {
  DECAM_SPAN(span_name_);
  const Image& input = context.input();
  return over_filtered(context, [&](RowSource& filtered) {
    return config_.metric == Metric::MSE ? mse(input, filtered)
                                         : pair_stats(input, filtered).ssim;
  });
}

PairStats FilteringDetector::metrics(AnalysisContext& context) const {
  std::optional<AnalysisContext> own;
  const AnalysisContext& stages = staged(context, own);
  return over_filtered(stages, [&](RowSource& filtered) {
    return pair_stats(stages.input(), filtered);
  });
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
