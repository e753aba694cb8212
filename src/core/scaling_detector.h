// Scaling detection (paper Section III-A, Algorithm 1): downscale the input
// to the CNN's geometry with the victim pipeline's scaler, upscale back,
// and measure how much survived the round trip. Benign images change
// little; attack images come back looking like the upscaled target.
#pragma once

#include "core/detector.h"
#include "imaging/scale.h"
#include "metrics/fused.h"

namespace decam::core {

struct ScalingDetectorConfig {
  int down_width = 224;   // CNN input geometry (Table 1 of the paper)
  int down_height = 224;
  ScaleAlgo down_algo = ScaleAlgo::Bilinear;  // victim pipeline's scaler
  ScaleAlgo up_algo = ScaleAlgo::Bilinear;    // reconstruction scaler
  Metric metric = Metric::MSE;  // MSE or SSIM
};

class ScalingDetector final : public Detector {
 public:
  explicit ScalingDetector(ScalingDetectorConfig config);

  void prime(AnalysisContextSpec& spec) const override;
  std::string name() const override;

  /// MSE, SSIM and PSNR of the (input, round trip) pair from one fused
  /// pass, through the same stage lookup as score() — what the experiment
  /// battery records. A scoring MSE member pays one mse() sweep instead.
  PairStats metrics(AnalysisContext& context) const;

  /// The round-tripped image S (exposed for examples/visualisation).
  Image round_trip(const Image& input) const;

  const ScalingDetectorConfig& config() const { return config_; }

 private:
  double reduce(const AnalysisContext& context) const override;
  /// The round trip S as rows: the context's downscale upscaled back to
  /// the input geometry one row at a time, once the input passed the size
  /// check that every entry point shares. S is never stored.
  ResizeRows round_trip_rows(const AnalysisContext& context) const;

  ScalingDetectorConfig config_;
};

}  // namespace decam::core
