#include "imaging/scale.h"

#include <atomic>
#include <memory>
#include <vector>

#include "common/simd.h"
#include "obs/memstats.h"
#include "obs/span.h"

namespace decam {
namespace {

std::atomic<std::uint64_t> g_scratch_bytes{0};

}  // namespace

// One thread's resize scratch: the horizontal pass (out_width x src height
// per channel), the four-row pass's transposed source rows, the vertical
// pass's double accumulator row and the row that row() hands out. Kept
// across calls, so a resize of a geometry seen before allocates nothing but
// its output (a small block per call moved the planes' placement and cost
// the 192² kernel_bench resizes 10-20%).
struct ResizeScratch {
  std::vector<float, DefaultInitAllocator<float>> mid;
  std::vector<double, DefaultInitAllocator<double>> lanes;
  std::vector<double, DefaultInitAllocator<double>> acc;
  std::vector<float, DefaultInitAllocator<float>> row;
  std::vector<char> read;  // source rows some vertical tap names
  bool busy = false;
  obs::ScratchShare share{"resize_scratch", g_scratch_bytes};
};

ResizeRows::ResizeRows(const Image& src, int out_width, int out_height,
                       ScaleAlgo algo)
    : RowSource(out_width, out_height, src.channels()) {
  DECAM_REQUIRE(!src.empty(), "resize of empty image");
  DECAM_REQUIRE(out_width > 0 && out_height > 0,
                "output dimensions must be positive");
  thread_local ResizeScratch scratch;
  DECAM_ASSERT(!scratch.busy);
  scratch_ = &scratch;
  const auto horiz = get_kernel_table(src.width(), out_width, algo);
  vert_ = get_kernel_table(src.height(), out_height, algo);

  // Horizontal pass, on the source rows some vertical tap names.
  // Separability holds exactly for all our kernels. A downscale without
  // anti-aliasing names few of them (a bilinear 1024 -> 224 reads 448 of
  // 1024 rows); the other rows of `mid` stay unset, and nothing reads them.
  const std::size_t w = static_cast<std::size_t>(out_width);
  mid_plane_ = w * static_cast<std::size_t>(src.height());
  scratch.read.assign(static_cast<std::size_t>(src.height()), 0);
  for (const Tap& tap : vert_->taps) {
    scratch.read[static_cast<std::size_t>(tap.index)] = 1;
  }
  size_exactly(scratch.mid,
               mid_plane_ * static_cast<std::size_t>(src.channels()));
  // The rows it needs go four at a time through the table's four-row pass
  // (SimdOps::resize_rows4, one row per lane), whose transposed rows start
  // on a 32-byte boundary; the 0-3 rows left of a plane take apply_kernel.
  // Both compute each sample as apply_kernel does, so the grouping leaves
  // every output bit unchanged.
  const std::size_t lane_doubles = 4 * static_cast<std::size_t>(src.width());
  size_exactly(scratch.lanes, lane_doubles + 3);
  void* lanes_start = scratch.lanes.data();
  std::size_t lanes_bytes = scratch.lanes.size() * sizeof(double);
  double* const lanes = static_cast<double*>(std::align(
      32, lane_doubles * sizeof(double), lanes_start, lanes_bytes));
  const simd::SimdOps& ops = simd::ops();
  for (int c = 0; c < src.channels(); ++c) {
    float* plane =
        scratch.mid.data() + static_cast<std::size_t>(c) * mid_plane_;
    const float* in[4];
    float* out[4];
    int group = 0;
    for (int y = 0; y < src.height(); ++y) {
      if (!scratch.read[static_cast<std::size_t>(y)]) continue;
      in[group] = src.row(y, c).data();
      out[group] = plane + static_cast<std::size_t>(y) * w;
      if (++group == 4) {
        ops.resize_rows4(horiz->taps.data(), horiz->offsets.data(),
                         out_width, in, src.width(), lanes, out);
        group = 0;
      }
    }
    for (int r = 0; r < group; ++r) apply_kernel(*horiz, in[r], 1, out[r], 1);
  }
  size_exactly(scratch.acc, w);
  size_exactly(scratch.row, w);
  scratch.share.set(scratch.mid.capacity() * sizeof(float) +
                    scratch.lanes.capacity() * sizeof(double) +
                    scratch.acc.capacity() * sizeof(double) +
                    scratch.row.capacity() * sizeof(float) +
                    scratch.read.capacity());
  scratch.busy = true;
}

ResizeRows::~ResizeRows() { scratch_->busy = false; }

// Vertical pass: the output row is a weighted sum of its contributing
// horizontal-pass rows, accumulated across a contiguous double row. This
// walks whole rows (sequential cache lines) instead of strided columns,
// and keeps the per-pixel arithmetic — double accumulation over taps in
// ascending source order, one final cast — identical to the column-walk
// formulation, so outputs are bit-exact either way. The first tap assigns
// (0 + w*v == w*v exactly) and the last tap fuses the cast, so a support-n
// row costs n row sweeps, not n + 2. Each sweep is one runtime-dispatched
// SIMD row op (common/simd.h), whose contract pins exactly that arithmetic
// on every variant.
void ResizeRows::write_row(int y, int c, float* out) const {
  DECAM_ASSERT(c >= 0 && c < channels());
  const simd::SimdOps& ops = simd::ops();
  const int w = width();
  const auto taps = vert_->row(y);
  const std::size_t n = taps.size();
  const float* plane =
      scratch_->mid.data() + static_cast<std::size_t>(c) * mid_plane_;
  const auto mid = [&](std::size_t t) {
    return plane + static_cast<std::size_t>(taps[t].index) *
                       static_cast<std::size_t>(w);
  };
  if (n == 1) {
    ops.weighted_assign_f32(out, mid(0), taps[0].weight, w);
    return;
  }
  double* acc = scratch_->acc.data();
  ops.weighted_init_f64(acc, mid(0), taps[0].weight, w);
  for (std::size_t t = 1; t + 1 < n; ++t) {
    ops.weighted_add_f64(acc, mid(t), taps[t].weight, w);
  }
  ops.weighted_finish_f32(out, acc, mid(n - 1), taps[n - 1].weight, w);
}

const float* ResizeRows::row(int y, int c) {
  float* out = scratch_->row.data();
  write_row(y, c, out);
  return out;
}

Image resize(const Image& src, int out_width, int out_height, ScaleAlgo algo) {
  DECAM_SPAN("imaging/resize");
  const ResizeRows rows(src, out_width, out_height, algo);
  Image out = Image::uninitialized(out_width, out_height, src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < out_height; ++y) {
      rows.write_row(y, c, out.row(y, c).data());
    }
  }
  return out;
}

Image scale_round_trip(const Image& src, int down_width, int down_height,
                       ScaleAlgo down, ScaleAlgo up) {
  DECAM_SPAN("imaging/scale_round_trip");
  return resize(resize(src, down_width, down_height, down), src.width(),
                src.height(), up);
}

}  // namespace decam
