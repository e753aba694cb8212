#include "core/histogram_detector.h"

#include "metrics/histogram.h"

namespace decam::core {

HistogramDetector::HistogramDetector(HistogramDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.down_width > 0 && config.down_height > 0,
                "downscale geometry must be positive");
  DECAM_REQUIRE(config.bins > 0 && config.bins <= 256, "bad bin count");
}

double HistogramDetector::reduce(const AnalysisContext& context) const {
  const auto h_in = color_histogram(context.input(), config_.bins);
  const auto h_down = color_histogram(context.downscaled(), config_.bins);
  return histogram_intersection(h_in, h_down);
}

void HistogramDetector::prime(AnalysisContextSpec& spec) const {
  // Only claim the downscale slot when no member has: the scaling
  // detector streams its round trip from the same downscale, so one stage
  // serves both whatever its reconstruction scaler.
  if (spec.down_width == 0) {
    spec.down_width = config_.down_width;
    spec.down_height = config_.down_height;
    spec.down_algo = config_.algo;
  }
}

std::string HistogramDetector::name() const { return "histogram/intersection"; }

}  // namespace decam::core
