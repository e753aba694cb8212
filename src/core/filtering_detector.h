// Filtering detection (paper Section III-B, Algorithm 2): run a small
// minimum filter over the input and compare against the original. The
// attack's embedded target pixels are extreme values relative to their
// neighbourhood, so the minimum filter smears them across the image and the
// filtered result diverges sharply from the input; benign images only
// darken slightly.
#pragma once

#include "core/detector.h"
#include "imaging/filter.h"
#include "metrics/fused.h"

namespace decam::core {

struct FilteringDetectorConfig {
  int window = 2;              // k of the k x k rank filter (paper: 2)
  RankOp op = RankOp::Min;     // paper compares Min/Median/Max; Min wins
  Metric metric = Metric::SSIM;
};

class FilteringDetector final : public Detector {
 public:
  explicit FilteringDetector(FilteringDetectorConfig config);

  void prime(AnalysisContextSpec& spec) const override;
  std::string name() const override;

  /// MSE, SSIM and PSNR of the (input, filtered) pair from one fused pass,
  /// through the same stage lookup as score() — what the experiment
  /// battery records.
  PairStats metrics(AnalysisContext& context) const;

  /// The filtered image F (exposed for examples/visualisation).
  Image filtered(const Image& input) const;

  const FilteringDetectorConfig& config() const { return config_; }

 private:
  double reduce(const AnalysisContext& context) const override;
  /// `fn(F)` over the filtered image's rows: a Min or Max streams them
  /// from the input (RankRows), a Median reads the plane its stage kept.
  template <typename Fn>
  auto over_filtered(const AnalysisContext& context, Fn&& fn) const;

  FilteringDetectorConfig config_;
  // "detector/" + name(): built once, so a span with both sinks off
  // allocates nothing.
  std::string span_name_;
};

}  // namespace decam::core
