// Quickstart: the 60-second tour of the library.
//
//   1. Generate a "photo" and a malicious target.
//   2. Craft an image-scaling attack (the wolf hidden in the sheep).
//   3. Run the Decamouflage scanner (three detectors, majority vote) on
//      both the benign and the attack image.
//   4. Write the images involved to ./quickstart_out/ as PPM files so you
//      can look at them.
//
// Run:  ./quickstart [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "attack/scale_attack.h"
#include "core/scanner.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/image_io.h"
#include "imaging/scale.h"

using namespace decam;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // --- 1. A scene (what the user uploads) and a target (what the attacker
  //        wants the CNN to see after the 448 -> 112 downscale).
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 448;
  data::Rng scene_rng(seed);
  data::Rng target_rng(seed + 1);
  const Image scene = generate_scene(params, scene_rng);
  const Image target = data::generate_target(112, 112, target_rng);
  std::printf("scene: %dx%d, target: %dx%d\n", scene.width(), scene.height(),
              target.width(), target.height());

  // --- 2. Craft the attack against a bilinear pre-processing pipeline.
  attack::AttackOptions attack_options;
  attack_options.algo = ScaleAlgo::Bilinear;
  attack_options.eps = 2.0;
  const attack::AttackResult attack =
      attack::craft_attack(scene, target, attack_options);
  std::printf(
      "attack crafted: |scale(A)-T|_inf = %.2f, SSIM(A, source) = %.3f\n",
      attack.report.downscale_linf, attack.report.source_ssim);

  // --- 3. Decamouflage: the three detectors for the deployed pipeline
  //        geometry, thresholds from a quick black-box calibration on a
  //        handful of benign samples (a real deployment would use a larger
  //        hold-out set; see the benches), and a majority vote.
  core::ScanConfig config;
  config.model_width = config.model_height = 112;
  data::Rng calib_rng(seed + 2);
  std::vector<data::Rng> calib_rngs;
  for (int i = 0; i < 8; ++i) calib_rngs.push_back(calib_rng.fork());
  const core::Scanner decamouflage(
      config, core::Scanner::calibrate(
                  config, calib_rngs.size(),
                  [&](std::size_t i) {
                    data::Rng rng = calib_rngs[i];
                    return generate_scene(params, rng);
                  },
                  10.0));

  for (const auto& [label, image] :
       {std::pair<const char*, const Image&>{"benign", scene},
        std::pair<const char*, const Image&>{"attack", attack.image}}) {
    const core::ScanRecord record = decamouflage.scan(image);
    const auto vote = [&](std::size_t i) {
      return *record.members[i].vote ? "ATTACK" : "ok";
    };
    std::printf("%s image: scaling=%s filtering=%s steganalysis=%s -> %s\n",
                label, vote(0), vote(1), vote(2),
                record.attack ? "REJECTED" : "accepted");
  }

  // --- 4. Artefacts for human eyes.
  const std::filesystem::path out = "quickstart_out";
  std::filesystem::create_directories(out);
  write_pnm(scene, (out / "scene.ppm").string());
  write_pnm(target, (out / "target.ppm").string());
  write_pnm(attack.image, (out / "attack.ppm").string());
  Image downscaled = resize(attack.image, 112, 112, ScaleAlgo::Bilinear);
  write_pnm(downscaled.clamp(), (out / "attack_downscaled.ppm").string());
  write_pnm(scale_round_trip(attack.image, 112, 112, ScaleAlgo::Bilinear,
                             ScaleAlgo::Bilinear)
                .clamp(),
            (out / "attack_roundtrip.ppm").string());
  std::printf("wrote scene/target/attack images to %s/\n",
              out.string().c_str());
  return 0;
}
