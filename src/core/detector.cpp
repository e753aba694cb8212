#include "core/detector.h"

namespace decam::core {

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::MSE: return "mse";
    case Metric::SSIM: return "ssim";
    case Metric::CSP: return "csp";
  }
  return "?";
}

double Detector::score(const Image& input) const {
  AnalysisContextSpec spec;
  prime(spec);
  AnalysisContext context(input, spec, AnalysisContext::Build::Deferred);
  return score(context);
}

double Detector::score(AnalysisContext& context) const {
  std::optional<AnalysisContext> own;
  return reduce(staged(context, own));
}

const AnalysisContext& Detector::staged(
    AnalysisContext& context, std::optional<AnalysisContext>& own) const {
  AnalysisContextSpec need;
  prime(need);
  AnalysisContext& target =
      context.spec().covers(need)
          ? context
          : own.emplace(context.input(), need,
                        AnalysisContext::Build::Deferred);
  for (const AnalysisStage stage : analysis_plan(need)) target.ensure(stage);
  return target;
}

}  // namespace decam::core
