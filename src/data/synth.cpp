#include "data/synth.h"

#include <array>
#include <cmath>

#include "data/noise.h"
#include "imaging/draw.h"
#include "imaging/filter.h"

namespace decam::data {
namespace {

// Draws one random shape (disc, rectangle or bar) in a random color drawn
// from the regime's palette.
void add_shape(Image& img, Rng& rng, double value_lo, double value_hi) {
  const int w = img.width();
  const int h = img.height();
  std::array<float, 3> color = {
      static_cast<float>(rng.next_range(value_lo, value_hi)),
      static_cast<float>(rng.next_range(value_lo, value_hi)),
      static_cast<float>(rng.next_range(value_lo, value_hi))};
  const std::span<const float> color_span(
      color.data(), static_cast<std::size_t>(img.channels()));
  switch (rng.next_int(0, 2)) {
    case 0: {  // disc
      const int r = rng.next_int(std::min(w, h) / 16, std::min(w, h) / 4);
      fill_circle(img, rng.next_int(0, w - 1), rng.next_int(0, h - 1), r,
                  color_span);
      break;
    }
    case 1: {  // rectangle
      const int x0 = rng.next_int(0, w - 2);
      const int y0 = rng.next_int(0, h - 2);
      const int x1 = x0 + rng.next_int(w / 16, w / 3);
      const int y1 = y0 + rng.next_int(h / 16, h / 3);
      fill_rect(img, x0, y0, x1, y1, color_span);
      break;
    }
    default: {  // thick diagonal bar built from parallel lines
      const int x0 = rng.next_int(0, w - 1);
      const int y0 = rng.next_int(0, h - 1);
      const int x1 = rng.next_int(0, w - 1);
      const int y1 = rng.next_int(0, h - 1);
      const int thickness = rng.next_int(3, std::max(4, w / 40));
      for (int t = 0; t < thickness; ++t) {
        draw_line(img, x0 + t, y0, x1 + t, y1, color_span);
      }
      break;
    }
  }
}

}  // namespace

SceneParams scene_params(Regime regime) {
  // Both regimes share the LOW-LEVEL statistics (blur, texture energy,
  // octave structure): the paper's datasets are both natural photographs,
  // and that shared 1/f texture family is precisely why a percentile
  // threshold selected on one dataset transfers to the other. The regimes
  // differ in CONTENT — geometry mix, object density, palette — the way
  // NeurIPS-2017 crops differ from Caltech-256 object photos.
  SceneParams params;
  params.blur_sigma_min = 0.5;
  params.blur_sigma_max = 2.0;
  params.texture_alpha_min = 0.30;
  params.texture_alpha_max = 0.80;
  params.noise_octaves_min = 4;
  params.noise_octaves_max = 6;
  params.min_shapes = 3;
  params.max_shapes = 9;
  switch (regime) {
    case Regime::A:
      // NeurIPS-competition stand-in: larger photographic crops, wide
      // palette, no framing effects.
      params.min_side = 448;
      params.max_side = 1024;
      params.shape_value_lo = 20.0;
      params.shape_value_hi = 235.0;
      params.vignette = false;
      break;
    case Regime::B:
      // Caltech-256 stand-in: more varied sizes, a muted object-photo
      // palette and a vignette (smooth, so it does not move the
      // round-trip/filter scores the detectors threshold).
      params.min_side = 384;
      params.max_side = 896;
      params.shape_value_lo = 55.0;
      params.shape_value_hi = 215.0;
      params.vignette = true;
      break;
  }
  return params;
}

Image generate_scene(const SceneParams& params, Rng& rng) {
  DECAM_REQUIRE(params.min_side >= 32 && params.max_side >= params.min_side,
                "bad scene size bounds");
  const int w = rng.next_int(params.min_side, params.max_side);
  const int h = rng.next_int(params.min_side, params.max_side);
  const int channels = params.color ? 3 : 1;
  const bool flat_frame = rng.next_bool(params.flat_probability);
  const bool detail_frame =
      !flat_frame && rng.next_bool(params.detail_probability);

  // 1. Lighting gradient background.
  Image scene(w, h, channels);
  std::array<float, 3> from = {
      static_cast<float>(rng.next_range(30.0, 140.0)),
      static_cast<float>(rng.next_range(30.0, 140.0)),
      static_cast<float>(rng.next_range(30.0, 140.0))};
  std::array<float, 3> to = {
      static_cast<float>(rng.next_range(120.0, 230.0)),
      static_cast<float>(rng.next_range(120.0, 230.0)),
      static_cast<float>(rng.next_range(120.0, 230.0))};
  fill_gradient(scene,
                std::span<const float>(from.data(),
                                       static_cast<std::size_t>(channels)),
                std::span<const float>(to.data(),
                                       static_cast<std::size_t>(channels)),
                rng.next_range(0.0, 3.14159265));

  // 2. Object-like geometric content (none for near-flat frames).
  if (!flat_frame) {
    const int shapes = rng.next_int(params.min_shapes, params.max_shapes);
    for (int i = 0; i < shapes; ++i) {
      add_shape(scene, rng, params.shape_value_lo, params.shape_value_hi);
    }
  }

  // 3. Blend in the natural-statistics texture.
  DECAM_REQUIRE(params.noise_octaves_min >= 1 &&
                    params.noise_octaves_max >= params.noise_octaves_min,
                "bad octave range");
  NoiseParams noise_params;
  noise_params.octaves =
      rng.next_int(params.noise_octaves_min, params.noise_octaves_max);
  noise_params.base_period = rng.next_range(48.0, 160.0);
  noise_params.persistence = rng.next_range(0.40, 0.65);
  const Image texture = params.color
                            ? value_noise_rgb(w, h, noise_params, rng)
                            : value_noise(w, h, noise_params, rng);
  float alpha = static_cast<float>(
      rng.next_range(params.texture_alpha_min, params.texture_alpha_max));
  if (flat_frame) alpha *= 0.15f;  // studio-backdrop-like frame
  blend_sprite(scene, texture, 0, 0, alpha);

  // 4. Optional smooth vignette (radial falloff is low-frequency, so it
  // leaves the detectors' round-trip scores essentially unchanged).
  if (params.vignette) {
    const double cx = (w - 1) / 2.0;
    const double cy = (h - 1) / 2.0;
    const double max_r2 = cx * cx + cy * cy;
    const float strength = static_cast<float>(rng.next_range(0.15, 0.35));
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const double r2 = ((x - cx) * (x - cx) + (y - cy) * (y - cy)) / max_r2;
        const float gain = 1.0f - strength * static_cast<float>(r2);
        for (int c = 0; c < channels; ++c) scene.at(x, y, c) *= gain;
      }
    }
  }

  // 5. Mild camera blur, then 8-bit quantisation like a decoded photo.
  scene = gaussian_blur(
      scene, rng.next_range(params.blur_sigma_min, params.blur_sigma_max));

  // 6. Halftone-like fine detail AFTER the blur (scanned prints, textiles,
  // window blinds): stripes near the sampling Nyquist rate that alias
  // badly under the non-anti-aliased scalers — a benign heavy tail.
  if (detail_frame) {
    const int period = rng.next_int(2, 4);
    const bool vertical = rng.next_bool();
    const float strength = static_cast<float>(rng.next_range(12.0, 45.0));
    const int x0 = rng.next_int(0, w / 2);
    const int y0 = rng.next_int(0, h / 2);
    const int x1 = rng.next_int(x0 + w / 4, w);
    const int y1 = rng.next_int(y0 + h / 4, h);
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const int phase = (vertical ? x : y) % period;
        const float delta = phase == 0 ? strength : -strength / (period - 1);
        for (int c = 0; c < channels; ++c) scene.at(x, y, c) += delta;
      }
    }
  }
  scene.clamp();
  for (int c = 0; c < scene.channels(); ++c) {
    for (float& v : scene.plane(c)) v = std::round(v);
  }
  return scene;
}

Image generate_target(int width, int height, Rng& rng, bool color) {
  const int channels = color ? 3 : 1;
  Image target(width, height, channels);
  // Flat background with strong foreground glyphs: the "wolf" the attacker
  // wants the model to see. High contrast makes attack success obvious.
  std::array<float, 3> bg = {
      static_cast<float>(rng.next_range(0.0, 80.0)),
      static_cast<float>(rng.next_range(0.0, 80.0)),
      static_cast<float>(rng.next_range(0.0, 80.0))};
  fill_rect(target, 0, 0, width, height,
            std::span<const float>(bg.data(),
                                   static_cast<std::size_t>(channels)));
  const int glyphs = rng.next_int(2, 5);
  for (int i = 0; i < glyphs; ++i) add_shape(target, rng, 0.0, 255.0);
  // A bright frame helps visual inspection of crafted images.
  std::array<float, 3> frame = {240.0f, 240.0f, 240.0f};
  const std::span<const float> frame_span(
      frame.data(), static_cast<std::size_t>(channels));
  fill_rect(target, 0, 0, width, 2, frame_span);
  fill_rect(target, 0, height - 2, width, height, frame_span);
  fill_rect(target, 0, 0, 2, height, frame_span);
  fill_rect(target, width - 2, 0, width, height, frame_span);
  target.clamp();
  return target;
}

std::vector<Image> generate_targets(int width, int height, int count,
                                    std::uint64_t seed, bool color) {
  DECAM_REQUIRE(count >= 0, "count must be non-negative");
  Rng root(seed ^ 0x7A26E7ull);
  std::vector<Image> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Rng child = root.fork();
    images.push_back(generate_target(width, height, child, color));
  }
  return images;
}

}  // namespace decam::data
