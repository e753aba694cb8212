// Reproduces Table 7 of the paper: per-image run-time overhead of each
// detection method x metric, measured with google-benchmark on a fixed
// synthetic scene. Absolute milliseconds depend on the host CPU; the shape
// to reproduce is the ordering CSP << MSE variants << SSIM variants (the
// paper measures 3 ms / ~11 ms / ~137-174 ms on an i5-7500). The 448² scene
// is 2^6 * 7 per side, a mixed-radix FFT length: here CSP lands below both
// SSIM variants but above both MSE variants (EXPERIMENTS.md, Table 7).
//
// After the benchmarks the binary prints a per-kernel breakdown
// (context/round_trip, context/filter, context/spectrum) from the obs
// histograms the AnalysisContext records into, so a regression in one
// kernel is attributable instead of just inflating a detector total.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/analysis_context.h"
#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "obs/metrics.h"

namespace {

using namespace decam;

// One representative input image, shared across all benchmarks: scenes in
// the paper's evaluation average several hundred pixels per side.
const Image& test_image() {
  static const Image image = [] {
    data::SceneParams params = data::scene_params(data::Regime::A);
    params.min_side = params.max_side = 448;
    data::Rng rng(7);
    return generate_scene(params, rng);
  }();
  return image;
}

core::ScalingDetectorConfig scaling_config(core::Metric metric) {
  core::ScalingDetectorConfig config;
  config.down_width = config.down_height = 224;
  config.metric = metric;
  return config;
}

void BM_ScalingMse(benchmark::State& state) {
  const core::ScalingDetector detector{scaling_config(core::Metric::MSE)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(test_image()));
  }
}
BENCHMARK(BM_ScalingMse)->Unit(benchmark::kMillisecond);

void BM_ScalingSsim(benchmark::State& state) {
  const core::ScalingDetector detector{scaling_config(core::Metric::SSIM)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(test_image()));
  }
}
BENCHMARK(BM_ScalingSsim)->Unit(benchmark::kMillisecond);

void BM_FilteringMse(benchmark::State& state) {
  core::FilteringDetectorConfig config;
  config.metric = core::Metric::MSE;
  const core::FilteringDetector detector{config};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(test_image()));
  }
}
BENCHMARK(BM_FilteringMse)->Unit(benchmark::kMillisecond);

void BM_FilteringSsim(benchmark::State& state) {
  core::FilteringDetectorConfig config;
  config.metric = core::Metric::SSIM;
  const core::FilteringDetector detector{config};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(test_image()));
  }
}
BENCHMARK(BM_FilteringSsim)->Unit(benchmark::kMillisecond);

void BM_SteganalysisCsp(benchmark::State& state) {
  const core::SteganalysisDetector detector{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(test_image()));
  }
}
BENCHMARK(BM_SteganalysisCsp)->Unit(benchmark::kMillisecond);

// Shared-intermediate build, the way Battery amortizes work across
// detectors. Each iteration times the three kernels into the context/*
// histograms reported after the run.
void BM_AnalysisContext(benchmark::State& state) {
  core::AnalysisContextSpec spec;
  spec.down_width = spec.down_height = 224;
  spec.up_algo = ScaleAlgo::Bilinear;
  spec.filter_window = 2;
  spec.spectrum = true;
  for (auto _ : state) {
    core::AnalysisContext context(test_image(), spec);
    benchmark::DoNotOptimize(context.round_trip().at(0, 0, 0));
  }
}
BENCHMARK(BM_AnalysisContext)->Unit(benchmark::kMillisecond);

void print_kernel_breakdown() {
  const auto& registry = obs::MetricsRegistry::instance();
  std::printf("\nPer-kernel breakdown (AnalysisContext obs histograms):\n");
  std::printf("%-22s %8s %10s %10s %10s\n", "kernel", "count", "p50 ms",
              "p95 ms", "max ms");
  for (const char* name :
       {"context/round_trip", "context/filter", "context/spectrum"}) {
    const obs::Histogram* hist = registry.find_histogram(name);
    if (hist == nullptr || hist->count() == 0) {
      std::printf("%-22s %8s\n", name, "-");
      continue;
    }
    std::printf("%-22s %8llu %10.3f %10.3f %10.3f\n", name,
                static_cast<unsigned long long>(hist->count()),
                hist->percentile(50.0), hist->percentile(95.0),
                hist->max_ms());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_kernel_breakdown();
  return 0;
}
