// Microbenchmarks for the hot imaging/signal kernels every detector funnels
// through: separable resize (all five algorithms, up and down), the rank
// filters of the filtering detector, box/Gaussian blur, the FFT
// log-spectrum, and one full Battery::score. Each benchmark reports the
// minimum iteration time normalised to ns/pixel and MP/s over a fixed
// synthetic input (seed 7), so numbers are comparable across commits and
// hosts of the same class.
//
//   kernel_bench [--quick] [--json] [--out FILE] [--filter SUBSTR]
//                [--regress-against FILE]
//   kernel_bench --validate FILE
//
// --json writes the `decam-kernel-bench-v1` document (default
// BENCH_kernels.json — run from the repo root to refresh the committed perf
// trail) and re-reads it through the schema validator before exiting, so a
// malformed file can never be written silently. --validate checks an
// existing file and exits non-zero on violation (the bench_smoke ctest).
//
// --regress-against compares the run just measured with a baseline document
// (normally the committed BENCH_kernels.json) and exits non-zero if any
// benchmark present in both runs is more than 2x slower in ns/pixel. The
// factor is deliberately loose: it is a tripwire for accidental algorithmic
// regressions (a dropped fast path, an O(k) loop reappearing), not a
// noise-level performance gate, and it must tolerate the quick run's
// smaller inputs and a different host class. Spectrum benchmarks therefore
// use the same fixed geometries in quick and full modes — they are the
// entries whose regime (radix-4 vs Bluestein) depends on the exact size.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/simd.h"
#include "core/pipeline.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/filter.h"
#include "imaging/scale.h"
#include "metrics/fused.h"
#include "metrics/histogram.h"
#include "signal/spectrum.h"

namespace {

using namespace decam;
using bench::micro::BenchResult;
using bench::micro::run_bench;

struct Options {
  bool quick = false;
  bool json = false;
  std::string out = "BENCH_kernels.json";
  std::string filter;
  std::string validate;  // non-empty: validate this file and exit
  std::string regress;   // non-empty: compare against this baseline JSON
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      opt.filter = argv[++i];
    } else if (std::strcmp(argv[i], "--validate") == 0 && i + 1 < argc) {
      opt.validate = argv[++i];
    } else if (std::strcmp(argv[i], "--regress-against") == 0 &&
               i + 1 < argc) {
      opt.regress = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json] [--out FILE] "
                   "[--filter SUBSTR] [--regress-against FILE] | "
                   "--validate FILE\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.validate.empty()) {
    return bench::micro::validate_file("kernel_bench", opt.validate);
  }

  // Fixed synthetic inputs. `big` plays the scanned image, `small` the CNN
  // input geometry it round-trips through.
  const int side = opt.quick ? 192 : 512;
  const int cnn = opt.quick ? 96 : 224;
  const double budget_ms = opt.quick ? 40.0 : 300.0;

  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = side;
  data::Rng rng(7);
  const Image big = generate_scene(params, rng);
  const Image small = resize(big, cnn, cnn, ScaleAlgo::Bilinear);
  const std::size_t big_px = big.plane_size() * big.channels();

  std::printf("kernel_bench: %dx%dx%d scene (seed 7)%s\n\n", big.width(),
              big.height(), big.channels(), opt.quick ? " [quick]" : "");

  std::vector<BenchResult> results;
  auto bench = [&](const std::string& name, std::size_t pixels,
                   const std::function<void()>& fn) {
    if (!opt.filter.empty() && name.find(opt.filter) == std::string::npos) {
      return;
    }
    results.push_back(run_bench(name, pixels, budget_ms, fn));
    bench::micro::print_result(results.back());
  };
  // Same benchmark with the scalar SimdOps table forced, so the dispatch
  // win of each vectorized kernel is measurable next to its default entry
  // (which runs whatever the host resolved — see the simd/dispatch gauge).
  auto bench_scalar = [&](const std::string& name, std::size_t pixels,
                          const std::function<void()>& fn) {
    const simd::Isa prev = simd::set_active_isa(simd::Isa::Scalar);
    bench(name + "/scalar", pixels, fn);
    simd::set_active_isa(prev);
  };

  // --- separable resize, every algorithm, down and up ---------------------
  for (const ScaleAlgo algo :
       {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
        ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
    const std::string tag = to_string(algo);
    bench("resize/" + tag + "/down", big_px,
          [&] { (void)resize(big, cnn, cnn, algo); });
    bench("resize/" + tag + "/up", big_px,
          [&] { (void)resize(small, side, side, algo); });
  }
  bench("resize/bicubic/round_trip", big_px, [&] {
    (void)scale_round_trip(big, cnn, cnn, ScaleAlgo::Bicubic,
                           ScaleAlgo::Bicubic);
  });
  bench_scalar("resize/bicubic/up", big_px,
               [&] { (void)resize(small, side, side, ScaleAlgo::Bicubic); });

  // --- rank filters (the filtering detector's hot loop) -------------------
  for (const int k : {2, 3, 5, 9}) {
    bench("rank/min/k" + std::to_string(k), big_px,
          [&, k] { (void)rank_filter(big, k, RankOp::Min); });
  }
  bench("rank/max/k9", big_px, [&] { (void)rank_filter(big, 9, RankOp::Max); });
  // The median entries run on the 8-bit quantised scene — the decoded-image
  // grid every real scan presents, i.e. the Grid8 route: k = 3 measures the
  // min/max selection network, k >= 5 the Perreault–Hébert histogram
  // path. The /grid16 and /exact variants pin the other two classifier
  // routes on the same geometry: half-stepping the u8 grid lands on i/256
  // values, and a single 0.3f nudge (not representable as i/256) pushes
  // the scene off both grids onto the sorted-window fallback. The raw
  // float scene is NOT a valid Exact input — generate_scene emits
  // integral values, which classify as Grid8.
  const Image big_u8 =
      Image::from_u8(big.to_u8(), big.width(), big.height(), big.channels());
  Image big_half = big_u8;
  big_half *= 0.5f;
  Image big_off = big_u8;
  big_off.row(0, 0).data()[0] += 0.3f;
  for (const int k : {3, 5, 7, 9, 15}) {
    bench("rank/median/k" + std::to_string(k), big_px,
          [&, k] { (void)rank_filter(big_u8, k, RankOp::Median); });
  }
  bench_scalar("rank/median/k9", big_px,
               [&] { (void)rank_filter(big_u8, 9, RankOp::Median); });
  bench("rank/median/k9/grid16", big_px,
        [&] { (void)rank_filter(big_half, 9, RankOp::Median); });
  bench("rank/median/k9/exact", big_px,
        [&] { (void)rank_filter(big_off, 9, RankOp::Median); });

  // --- blurs (dataset generator / robustness experiments) -----------------
  for (const int k : {3, 9, 25}) {
    bench("blur/box/k" + std::to_string(k), big_px,
          [&, k] { (void)box_blur(big, k); });
  }
  bench("blur/gaussian/s1.5", big_px, [&] { (void)gaussian_blur(big, 1.5); });
  bench_scalar("blur/gaussian/s1.5", big_px,
               [&] { (void)gaussian_blur(big, 1.5); });

  // --- FFT log-spectrum (steganalysis detection) ---------------------------
  // Fixed geometries in both modes: the FFT regime (planned radix-4 vs
  // Bluestein) depends on the exact side length, so quick-mode scaling would
  // silently benchmark a different code path (192 is not a power of two) and
  // break the --regress-against comparison with the committed full-run
  // baseline. Sizes cover the planned real-input pow2 path at two scales,
  // the CNN input geometry (224 = 2^5 * 7, mixed-composite Bluestein), and a
  // large odd Bluestein side.
  {
    const Image pow2_512 = resize(big, 512, 512, ScaleAlgo::Bilinear);
    const Image pow2_256 = resize(big, 256, 256, ScaleAlgo::Bilinear);
    const Image cnn_224 = resize(big, 224, 224, ScaleAlgo::Bilinear);
    const Image odd_450 = resize(big, 450, 450, ScaleAlgo::Bilinear);
    bench("spectrum/pow2", pow2_512.plane_size(),
          [&] { (void)centered_log_spectrum(pow2_512); });
    bench("spectrum/pow2_256", pow2_256.plane_size(),
          [&] { (void)centered_log_spectrum(pow2_256); });
    bench("spectrum/cnn224", cnn_224.plane_size(),
          [&] { (void)centered_log_spectrum(cnn_224); });
    bench("spectrum/bluestein", odd_450.plane_size(),
          [&] { (void)centered_log_spectrum(odd_450); });
  }

  // --- one full battery score (everything a `decamctl scan` pays) ---------
  {
    core::ExperimentConfig config;
    config.target_width = config.target_height = cnn;
    const core::Battery battery(config);
    bench("battery/score", big_px, [&] { (void)battery.score(big); });

    // The same score on a prebuilt context isolates the metric reductions
    // from intermediate construction (round trip, filter, spectrum).
    core::AnalysisContext context(big, battery.context_spec());
    bench("battery/score_fused", big_px,
          [&] { (void)battery.score(context); });

    // Per-stage breakdown over the same prebuilt intermediates, so a
    // regression in one stage is attributable without re-deriving it from
    // battery/score deltas.
    bench("battery/pair_stats/scaling", big_px, [&] {
      (void)pair_stats(big, context.round_trip());
    });
    bench("battery/pair_stats/filtering", big_px, [&] {
      (void)pair_stats(big, context.filtered());
    });
    bench_scalar("battery/pair_stats/filtering", big_px, [&] {
      (void)pair_stats(big, context.filtered());
    });
    const core::SteganalysisDetector steg{core::SteganalysisDetectorConfig{}};
    bench("battery/steganalysis/csp", big_px,
          [&] { (void)steg.score(context); });
    bench("battery/histogram", big_px, [&] {
      (void)histogram_intersection(color_histogram(big, 32),
                                   color_histogram(context.downscaled(), 32));
    });
  }

  if (opt.json) {
    const std::string doc = bench::micro::bench_json(results, opt.quick);
    const std::string error = bench::micro::validate_bench_json(doc);
    if (!error.empty()) {
      std::fprintf(stderr, "kernel_bench: refusing to write %s: %s\n",
                   opt.out.c_str(), error.c_str());
      return 1;
    }
    std::ofstream out(opt.out);
    if (!out) {
      std::fprintf(stderr, "kernel_bench: cannot write %s\n",
                   opt.out.c_str());
      return 1;
    }
    out << doc;
    out.close();
    std::printf("\nwrote %s (%zu benchmarks)\n", opt.out.c_str(),
                results.size());

    // Provenance sidecar: BENCH_foo.json -> BENCH_foo.manifest.json, so a
    // refreshed baseline carries the build flavour and metric snapshot of
    // the run that produced it.
    bench::manifest::RunManifest manifest;
    manifest.binary = "kernel_bench";
    manifest.argv.assign(argv + 1, argv + argc);
    manifest.quick = opt.quick;
    manifest.seed = 7;
    manifest.image_width = big.width();
    manifest.image_height = big.height();
    std::string manifest_path = opt.out;
    const std::size_t dot = manifest_path.rfind(".json");
    manifest_path = dot == std::string::npos
                        ? manifest_path + ".manifest.json"
                        : manifest_path.substr(0, dot) + ".manifest.json";
    (void)bench::manifest::write_manifest(manifest, manifest_path);
  }
  if (!opt.regress.empty() &&
      bench::micro::check_regressions("kernel_bench", results, opt.regress) !=
          0) {
    return 1;
  }
  return 0;
}
