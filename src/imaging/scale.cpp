#include "imaging/scale.h"

#include <algorithm>
#include <vector>

#include "common/simd.h"
#include "obs/span.h"

namespace decam {

Image resize(const Image& src, int out_width, int out_height, ScaleAlgo algo) {
  DECAM_SPAN("imaging/resize");
  DECAM_REQUIRE(!src.empty(), "resize of empty image");
  DECAM_REQUIRE(out_width > 0 && out_height > 0,
                "output dimensions must be positive");
  const auto horiz = get_kernel_table(src.width(), out_width, algo);
  const auto vert = get_kernel_table(src.height(), out_height, algo);

  // Horizontal pass into an intermediate out_width x src.height buffer,
  // on the source rows some vertical tap names. Separability holds exactly
  // for all our kernels. A downscale without anti-aliasing names few of
  // them (a bilinear 1024 -> 224 reads 448 of 1024 rows); the other rows of
  // `mid` stay unset, and nothing reads them. The row flags are per-thread
  // scratch, so a resize allocates nothing besides its two planes and the
  // accumulator row (a small block per call moved the planes' placement and
  // cost the 192² kernel_bench resizes 10-20%).
  thread_local std::vector<char> read;
  read.assign(static_cast<std::size_t>(src.height()), 0);
  for (const Tap& tap : vert->taps) read[static_cast<std::size_t>(tap.index)] = 1;
  Image mid = Image::uninitialized(out_width, src.height(), src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < src.height(); ++y) {
      if (!read[static_cast<std::size_t>(y)]) continue;
      apply_kernel(*horiz, src.row(y, c).data(), 1, mid.row(y, c).data(), 1);
    }
  }

  // Vertical pass, row-major: each output row is a weighted sum of its
  // contributing intermediate rows, accumulated across a contiguous double
  // buffer. This walks `mid` by whole rows (sequential cache lines) instead
  // of strided columns, and keeps the per-pixel arithmetic — double
  // accumulation over taps in ascending source order, one final cast —
  // identical to the column-walk formulation, so outputs are bit-exact
  // either way. The first tap assigns (0 + w*v == w*v exactly) and the last
  // tap fuses the cast, so a support-n row costs n row sweeps, not n + 2.
  // Each sweep is one runtime-dispatched SIMD row op (common/simd.h), whose
  // contract pins exactly that arithmetic on every variant.
  const simd::SimdOps& ops = simd::ops();
  Image out = Image::uninitialized(out_width, out_height, src.channels());
  std::vector<double> acc(static_cast<std::size_t>(out_width));
  double* acc_p = acc.data();
  for (int c = 0; c < src.channels(); ++c) {
    for (int o = 0; o < out_height; ++o) {
      const auto taps = vert->row(o);
      const std::size_t n = taps.size();
      float* out_row = out.row(o, c).data();
      if (n == 1) {
        ops.weighted_assign_f32(out_row, mid.row(taps[0].index, c).data(),
                                taps[0].weight, out_width);
        continue;
      }
      ops.weighted_init_f64(acc_p, mid.row(taps[0].index, c).data(),
                            taps[0].weight, out_width);
      for (std::size_t t = 1; t + 1 < n; ++t) {
        ops.weighted_add_f64(acc_p, mid.row(taps[t].index, c).data(),
                             taps[t].weight, out_width);
      }
      ops.weighted_finish_f32(out_row, acc_p,
                              mid.row(taps[n - 1].index, c).data(),
                              taps[n - 1].weight, out_width);
    }
  }
  return out;
}

Image scale_round_trip(const Image& src, int down_width, int down_height,
                       ScaleAlgo down, ScaleAlgo up) {
  return scale_round_trip_full(src, down_width, down_height, down, up).up;
}

RoundTripImages scale_round_trip_full(const Image& src, int down_width,
                                      int down_height, ScaleAlgo down,
                                      ScaleAlgo up) {
  DECAM_SPAN("imaging/scale_round_trip");
  RoundTripImages out;
  out.down = resize(src, down_width, down_height, down);
  out.up = resize(out.down, src.width(), src.height(), up);
  return out;
}

}  // namespace decam
