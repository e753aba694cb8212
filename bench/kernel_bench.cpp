// Microbenchmarks for the hot imaging/signal kernels every detector funnels
// through: separable resize (all five algorithms, up and down), the rank
// filters of the filtering detector, the Gaussian blur, the FFT
// spectrum stage, one full Battery::score, and the PNM decoder's
// byte-to-plane store (Image::from_u8). Each benchmark reports the
// minimum iteration time normalised to ns/pixel and MP/s over a fixed
// synthetic input (seed 7), and its ratio to the fixed anchor loop timed
// alternately with it in the same process (bench_common.h).
//
//   kernel_bench [--quick] [--json] [--out FILE] [--filter SUBSTR]
//                [--regress-against FILE]
//   kernel_bench --validate FILE
//
// --json runs the sweep three times and writes, per entry, the run with the
// median ratio as the `decam-kernel-bench-v2` document (default
// BENCH_kernels.json) and its run manifest, re-reading the document through
// the schema validator first, so a malformed file can never be written
// silently. --validate checks an existing file and exits non-zero on
// violation.
//
// --regress-against compares the run just measured with a baseline document
// and exits non-zero if any entry's ratio to its anchor is more than 2x the
// baseline's, or if an entry has no baseline entry of its name and pixel
// count. The committed BENCH_kernels.json is the baseline of the
// bench_regression ctest, which runs `--quick`; refresh it from the repo
// root with `kernel_bench --quick --json`, so the geometry and the sweep
// order (which at 192² moves an entry's cost through the allocator's
// state) are those of the gate. The factor is a tripwire for accidental
// algorithmic regressions (a dropped fast path, an O(k) loop reappearing),
// not a noise gate. Spectrum benchmarks use the same fixed geometries in
// quick and full modes: their regime (Stockham on 7-smooth sides vs
// Bluestein on sides with a prime factor above 7) depends on the exact size.
// So do resize/bilinear/down512 and up512, the 512² <-> 224² resizes a
// scan runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/simd.h"
#include "core/filtering_detector.h"
#include "core/pipeline.h"
#include "core/scaling_detector.h"
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

  std::vector<BenchResult> results;  // the sweep in flight
  auto bench = [&](const std::string& name, std::size_t pixels,
                   const std::function<void()>& fn) {
    if (!opt.filter.empty() && name.find(opt.filter) == std::string::npos) {
      return;
    }
    results.push_back(run_bench(name, pixels, budget_ms, fn));
    bench::micro::print_result(results.back());
  };
  // Same benchmark with one SimdOps table forced (NAME/<isa>), so the
  // dispatch win of each vectorized kernel is measurable next to its
  // default entry (which runs whatever the host resolved — see the
  // simd/dispatch gauge). A table the host cannot run falls back to scalar.
  auto bench_on = [&](simd::Isa isa, const std::string& name,
                      std::size_t pixels, const std::function<void()>& fn) {
    const simd::Isa prev = simd::set_active_isa(isa);
    bench(name + "/" + simd::to_string(isa), pixels, fn);
    simd::set_active_isa(prev);
  };
  auto bench_scalar = [&](const std::string& name, std::size_t pixels,
                          const std::function<void()>& fn) {
    bench_on(simd::Isa::Scalar, name, pixels, fn);
  };

  const auto sweep = [&] {
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
    // The downscale a scan runs on half of batch_mixed's corpus: 512² RGB
    // to the 224² model input, and the upscale its round trip runs back,
    // the same in quick and full mode, so the gate also times sizes scans
    // resize (at the quick 192² the resize entries misread what a scan
    // pays). up512/scalar runs the four-row horizontal pass on the scalar
    // table.
    {
      const Image scene_512 = resize(big, 512, 512, ScaleAlgo::Bilinear);
      const Image scene_224 = resize(big, 224, 224, ScaleAlgo::Bilinear);
      const std::size_t px_512 = scene_512.plane_size() * scene_512.channels();
      bench("resize/bilinear/down512", px_512, [&] {
        (void)resize(scene_512, 224, 224, ScaleAlgo::Bilinear);
      });
      bench("resize/bilinear/up512", px_512, [&] {
        (void)resize(scene_224, 512, 512, ScaleAlgo::Bilinear);
      });
      bench_scalar("resize/bilinear/up512", px_512, [&] {
        (void)resize(scene_224, 512, 512, ScaleAlgo::Bilinear);
      });
    }

    // --- rank filters (the filtering detector's hot loop) -------------------
    for (const int k : {2, 3, 5, 9}) {
      bench("rank/min/k" + std::to_string(k), big_px,
            [&, k] { (void)rank_filter(big, k, RankOp::Min); });
    }
    bench("rank/max/k9", big_px,
          [&] { (void)rank_filter(big, 9, RankOp::Max); });
    // The median's two routes. k3 runs the 8-bit quantised scene — the
    // decoded-image grid every real scan presents — through the 3x3
    // selection network (the Grid8 route), and its /scalar twin runs the
    // route's row check and network on the scalar table. k9/exact runs the
    // sorted window, the route of every other k and of images off the
    // grid: a single 0.3f nudge pushes the scene off it. The raw float
    // scene is NOT a valid Exact input — generate_scene emits integral
    // values, which classify as Grid8.
    const std::vector<std::uint8_t> big_bytes = big.to_u8();
    const Image big_u8 =
        Image::from_u8(big_bytes, big.width(), big.height(), big.channels());
    Image big_off = big_u8;
    big_off.row(0, 0).data()[0] += 0.3f;
    bench("rank/median/k3", big_px,
          [&] { (void)rank_filter(big_u8, 3, RankOp::Median); });
    bench_scalar("rank/median/k3", big_px,
                 [&] { (void)rank_filter(big_u8, 3, RankOp::Median); });
    bench("rank/median/k9/exact", big_px,
          [&] { (void)rank_filter(big_off, 9, RankOp::Median); });

    // --- Gaussian blur (dataset generator, `gauss` defense) -----------------
    bench("blur/gaussian/s1.5", big_px, [&] { (void)gaussian_blur(big, 1.5); });
    bench_scalar("blur/gaussian/s1.5", big_px,
                 [&] { (void)gaussian_blur(big, 1.5); });

    // --- spectrum stage (steganalysis detection) -----------------------------
    // What a scan's context builds: the half-plane transform, the logs and
    // their min/max (half_log_spectrum). Fixed geometries in both modes: the
    // FFT regime (Stockham vs Bluestein) depends on the exact side length, so
    // scaling them with --quick would benchmark a different code path than
    // the full sweep. Sizes cover the power-of-two Stockham path at two
    // scales, the 7-smooth mixed-radix path at the CNN input geometry
    // (224 = 2^5 * 7) and at Table 7's 448² (2^6 * 7, also a batch_mixed
    // geometry), and Bluestein on a prime side (449, convolution padded to
    // 900 = 2^2 * 3^2 * 5^2). The /scalar twins run the same stage on the
    // scalar table: its four-line transform on four plain doubles, and the
    // scalar logs.
    {
      const Image pow2_512 = resize(big, 512, 512, ScaleAlgo::Bilinear);
      const Image pow2_256 = resize(big, 256, 256, ScaleAlgo::Bilinear);
      const Image cnn_224 = resize(big, 224, 224, ScaleAlgo::Bilinear);
      const Image smooth_448 = resize(big, 448, 448, ScaleAlgo::Bilinear);
      const Image prime_449 = resize(big, 449, 449, ScaleAlgo::Bilinear);
      bench("spectrum/pow2", pow2_512.plane_size(),
            [&] { (void)half_log_spectrum(pow2_512); });
      bench_scalar("spectrum/pow2", pow2_512.plane_size(),
                   [&] { (void)half_log_spectrum(pow2_512); });
      bench("spectrum/pow2_256", pow2_256.plane_size(),
            [&] { (void)half_log_spectrum(pow2_256); });
      bench("spectrum/cnn224", cnn_224.plane_size(),
            [&] { (void)half_log_spectrum(cnn_224); });
      bench("spectrum/smooth448", smooth_448.plane_size(),
            [&] { (void)half_log_spectrum(smooth_448); });
      bench("spectrum/bluestein", prime_449.plane_size(),
            [&] { (void)half_log_spectrum(prime_449); });
      bench_scalar("spectrum/bluestein", prime_449.plane_size(),
                   [&] { (void)half_log_spectrum(prime_449); });
    }

    // --- one full battery score (everything a `decamctl scan` pays) ---------
    {
      core::ExperimentConfig config;
      config.target_width = config.target_height = cnn;
      const core::Battery battery(config);
      bench("battery/score", big_px, [&] { (void)battery.score(big); });

      // The same score on a prebuilt context (the downscale and the
      // spectrum) isolates the reductions from stage construction. The
      // round trip and the minimum filter are produced row by row inside
      // their reductions, so they count here.
      core::AnalysisContext context(big, battery.context_spec());
      bench("battery/score_fused", big_px,
            [&] { (void)battery.score(context); });

      // Per-stage breakdown, so a regression in one stage is attributable
      // without re-deriving it from battery/score deltas. The */rows
      // entries time what the deployed scaling/MSE and filtering/min/SSIM
      // members run on that context: the upscale's rows folded into the
      // MSE, the 2x2 minimum's rows fed to the SSIM walk.
      const core::ScalingDetector scaling_mse{
          {.down_width = cnn, .down_height = cnn}};
      bench("battery/scaling/mse_rows", big_px,
            [&] { (void)scaling_mse.score(context); });
      const core::FilteringDetector filtering_ssim{
          core::FilteringDetectorConfig{}};
      bench("battery/filtering/ssim_rows", big_px,
            [&] { (void)filtering_ssim.score(context); });
      // The pair reductions alone, over planes built outside the timing.
      const Image round_trip = scale_round_trip(
          big, cnn, cnn, ScaleAlgo::Bilinear, ScaleAlgo::Bilinear);
      const Image filtered = rank_filter(big, 2, RankOp::Min);
      bench("battery/pair_stats/scaling", big_px,
            [&] { (void)pair_stats(big, round_trip); });
      bench("battery/pair_stats/filtering", big_px,
            [&] { (void)pair_stats(big, filtered); });
      bench_scalar("battery/pair_stats/filtering", big_px,
                   [&] { (void)pair_stats(big, filtered); });
      // The same pair at 512² RGB in quick and full mode: at the quick
      // 192² a whole row's products fit L1, so only this entry shows what
      // the walk's products strips save.
      {
        const Image scene_512 = resize(big, 512, 512, ScaleAlgo::Bilinear);
        const Image filtered_512 = rank_filter(scene_512, 2, RankOp::Min);
        const std::size_t px_512 =
            scene_512.plane_size() * scene_512.channels();
        bench("battery/pair_stats/filtering512", px_512,
              [&] { (void)pair_stats(scene_512, filtered_512); });
        // The AVX2 walk (blocks of four) beside the dispatched one, which
        // is the AVX-512 walk (blocks of eight) where the host has it.
        bench_on(simd::Isa::Avx2, "battery/pair_stats/filtering512", px_512,
                 [&] { (void)pair_stats(scene_512, filtered_512); });
      }
      const core::SteganalysisDetector steg{core::SteganalysisDetectorConfig{}};
      bench("battery/steganalysis/csp", big_px,
            [&] { (void)steg.score(context); });
      bench("battery/histogram", big_px, [&] {
        (void)histogram_intersection(color_histogram(big, 32),
                                     color_histogram(context.downscaled(), 32));
      });
    }

    // --- decode: interleaved PNM bytes into planes (a scan's first stage
    // after the file read) ---------------------------------------------------
    bench("image/from_u8", big_px, [&] {
      (void)Image::from_u8(big_bytes, big.width(), big.height(),
                           big.channels());
    });
    bench_scalar("image/from_u8", big_px, [&] {
      (void)Image::from_u8(big_bytes, big.width(), big.height(),
                           big.channels());
    });
  };

  // --json runs three sweeps and keeps, per entry, the run with the median
  // ratio: one sweep can read an entry far off its neighbours, and a
  // baseline taken from it misjudges every later gate run. The gate's own
  // --regress-against run stays one sweep.
  const int sweeps = opt.json ? 3 : 1;
  std::vector<std::vector<BenchResult>> runs;
  for (int i = 0; i < sweeps; ++i) {
    if (i > 0) std::printf("\nsweep %d of %d\n", i + 1, sweeps);
    results.clear();
    sweep();
    runs.push_back(results);
  }
  for (std::size_t e = 0; e < results.size(); ++e) {
    std::vector<BenchResult> entry;
    for (const auto& run : runs) entry.push_back(run[e]);
    std::sort(entry.begin(), entry.end(),
              [](const BenchResult& a, const BenchResult& b) {
                return a.ratio < b.ratio;
              });
    results[e] = entry[entry.size() / 2];
  }

  if (opt.json) {
    bench::manifest::RunManifest manifest;
    manifest.binary = "kernel_bench";
    manifest.argv.assign(argv + 1, argv + argc);
    manifest.quick = opt.quick;
    manifest.seed = 7;
    manifest.image_width = big.width();
    manifest.image_height = big.height();
    if (bench::micro::write_document(
            "kernel_bench", opt.out,
            bench::micro::bench_json(results, opt.quick),
            bench::micro::validate_bench_json, &manifest) != 0) {
      return 1;
    }
  }
  if (!opt.regress.empty() &&
      bench::micro::check_regressions("kernel_bench", results, opt.regress) !=
          0) {
    return 1;
  }
  return 0;
}
