// Common interface of Decamouflage's detection methods.
//
// A Detector maps an input image to a scalar score; a Calibration
// (core/calibration.h) turns scores into attack/benign decisions. Keeping
// score and decision separate is what lets one code path serve both the
// white-box threshold search (needs raw scores of both classes) and the
// black-box percentile calibration (needs benign scores only), and lets the
// ensemble combine heterogeneous methods.
//
// Every detector has exactly one scoring implementation: a private
// reduction over an AnalysisContext holding the stages its prime()
// declares. Both public score() entry points, the ensemble and the
// experiment battery reach it through the same stage lookup, staged().
#pragma once

#include <optional>
#include <string>

#include "core/analysis_context.h"
#include "imaging/image.h"

namespace decam::core {

/// The similarity metric a spatial-domain detector reduces its image pair
/// with. CSP is the steganalysis detector's count metric.
enum class Metric { MSE, SSIM, CSP };

const char* to_string(Metric metric);

class Detector {
 public:
  virtual ~Detector() = default;

  /// Scalar detection score for one image, through a Deferred context built
  /// from prime(). Higher-is-attack vs lower-is-attack depends on the
  /// method+metric; Calibration carries the polarity.
  double score(const Image& input) const;

  /// Scores through a shared context, materialising the stages prime()
  /// declares (a Deferred context only ever pays for the detectors that
  /// actually run — the short-circuit ensemble vote's fast path). A context
  /// built for a different geometry, scaler or filter is never wrong, only
  /// slower: the detector then scores a private context over its input.
  double score(AnalysisContext& context) const;

  /// Extends `spec` with the intermediates this detector reads, so one
  /// context serves a whole ensemble (EnsembleDetector::context_spec()).
  virtual void prime(AnalysisContextSpec& spec) const { (void)spec; }

  /// Human-readable method name ("scaling/mse", ...).
  virtual std::string name() const = 0;

 protected:
  /// The stage lookup behind every scoring entry point: `context` with the
  /// stages prime() declares ensure()d when its spec covers them, else a
  /// private Deferred context over the same input, built into `own`.
  const AnalysisContext& staged(AnalysisContext& context,
                                std::optional<AnalysisContext>& own) const;

 private:
  /// The detector's one scoring implementation, over a context that holds
  /// every stage prime() declares.
  virtual double reduce(const AnalysisContext& context) const = 0;
};

}  // namespace decam::core
