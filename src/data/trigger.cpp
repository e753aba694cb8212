#include "data/trigger.h"

#include <array>

#include "imaging/draw.h"
#include "imaging/filter.h"

namespace decam::data {

Image stamp_trigger(const Image& img, const TriggerParams& params) {
  DECAM_REQUIRE(params.size_fraction_denom >= 2, "trigger too large");
  Image out = img;
  const int side = std::min(img.width(), img.height());
  const int lens = side / params.size_fraction_denom;
  const int thickness = std::max(1, lens / 6);
  const int cy = img.height() * 2 / 5;  // eye line, upper-centre
  const int cx = img.width() / 2;
  const std::array<float, 1> dark = {params.intensity};
  auto frame = [&](int x0, int y0, int x1, int y1) {
    fill_rect(out, x0, y0, x1, y0 + thickness, dark);
    fill_rect(out, x0, y1 - thickness, x1, y1, dark);
    fill_rect(out, x0, y0, x0 + thickness, y1, dark);
    fill_rect(out, x1 - thickness, y0, x1, y1, dark);
  };
  // Two joined frames: the "black-frame eye-glasses".
  frame(cx - lens - thickness, cy - lens / 2, cx - thickness, cy + lens / 2);
  frame(cx + thickness, cy - lens / 2, cx + lens + thickness, cy + lens / 2);
  fill_rect(out, cx - thickness, cy - thickness / 2, cx + thickness,
            cy + std::max(1, thickness / 2), dark);
  return out;
}

Image generate_identity_portrait(int identity, int side, Rng& rng) {
  DECAM_REQUIRE(identity >= 0 && identity < kIdentityCount,
                "identity out of range");
  DECAM_REQUIRE(side >= 64, "portrait side too small");
  // Per-identity palettes: shirt is the strongest class signal, with skin
  // tone and backdrop hue reinforcing it — all still visible at 32x32.
  struct Palette {
    float shirt[3];
    float skin[3];
    float backdrop[3];
  };
  static constexpr Palette kPalettes[kIdentityCount] = {
      {{200.0f, 40.0f, 40.0f}, {225.0f, 175.0f, 150.0f}, {70.0f, 90.0f, 140.0f}},
      {{40.0f, 160.0f, 60.0f}, {150.0f, 105.0f, 80.0f}, {150.0f, 120.0f, 80.0f}},
      {{45.0f, 70.0f, 200.0f}, {245.0f, 205.0f, 180.0f}, {120.0f, 70.0f, 120.0f}},
      {{215.0f, 195.0f, 60.0f}, {110.0f, 75.0f, 55.0f}, {60.0f, 130.0f, 130.0f}},
  };
  const Palette& palette = kPalettes[identity];

  auto jitter = [&rng](const float (&base)[3], double amount) {
    return std::array<float, 3>{
        static_cast<float>(base[0] + rng.next_range(-amount, amount)),
        static_cast<float>(base[1] + rng.next_range(-amount, amount)),
        static_cast<float>(base[2] + rng.next_range(-amount, amount))};
  };

  Image img(side, side, 3);
  const std::array<float, 3> bg_from = jitter(palette.backdrop, 18.0);
  const std::array<float, 3> bg_to = jitter(palette.backdrop, 40.0);
  fill_gradient(img, bg_from, bg_to, rng.next_range(0.0, 3.14159265));

  const std::array<float, 3> skin = jitter(palette.skin, 10.0);
  const int cx = side / 2 + rng.next_int(-side / 20, side / 20);
  const int cy = side * 2 / 5 + rng.next_int(-side / 24, side / 24);
  const int r = side / 4 + rng.next_int(-side / 24, side / 24);
  fill_circle(img, cx, cy, r, skin);
  fill_circle(img, cx, cy + r / 2, r * 4 / 5, skin);

  const std::array<float, 3> shirt = jitter(palette.shirt, 14.0);
  fill_rect(img, cx - r * 3 / 2, side * 4 / 5, cx + r * 3 / 2, side, shirt);

  std::array<float, 3> dark = {35.0f, 25.0f, 25.0f};
  const int eye_dx = r / 2;
  const int eye_y = cy - r / 6;
  fill_circle(img, cx - eye_dx, eye_y, std::max(2, r / 10), dark);
  fill_circle(img, cx + eye_dx, eye_y, std::max(2, r / 10), dark);
  fill_rect(img, cx - r / 3, cy + r / 2, cx + r / 3,
            cy + r / 2 + std::max(2, r / 12), dark);
  img = gaussian_blur(img, rng.next_range(0.8, 1.5));
  img.clamp();
  return img;
}

}  // namespace decam::data
