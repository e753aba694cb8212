#include "signal/spectrum.h"

#include <atomic>
#include <limits>

#include "common/simd.h"
#include "obs/memstats.h"
#include "obs/span.h"

namespace decam {
namespace {

// Bytes held by every live thread's spectrum workspace, for the
// `mem/spectrum_workspace_bytes` gauge.
std::atomic<std::uint64_t> g_workspace_bytes{0};

std::uint64_t workspace_bytes(const SpectrumWorkspace& ws) {
  return (ws.lines.capacity() + ws.groups.capacity() + ws.work.capacity()) *
             sizeof(double) +
         ws.values.capacity() * sizeof(float) + ws.mask.capacity() +
         ws.stack.capacity() * sizeof(std::size_t);
}

struct TrackedWorkspace {
  SpectrumWorkspace ws;
  obs::ScratchShare share{"spectrum_workspace", g_workspace_bytes};
};

constexpr int kLanes = simd::kFftLanes;

// Where column group g (columns 4g..4g+3) lives in SpectrumWorkspace::groups:
// h elements of re, then h elements of im, each element four lanes.
struct GroupLayout {
  int count;
  std::size_t plane;   // doubles from a group's re to its im
  std::size_t stride;  // doubles from one group to the next

  GroupLayout(int width, int height)
      : count((width / 2 + kLanes) / kLanes),
        plane(static_cast<std::size_t>(height) * kLanes),
        stride(2 * plane) {}
};

// Row y's luma into one lane of a split line: dst[x * kLanes] for x in
// [0, w). BT.601 (OpenCV's BGR2GRAY weights) without materialising a gray
// Image: one float expression per pixel, widened to double afterwards.
void load_luma(double* dst, const Image& img, int y) {
  const int w = img.width();
  const float* r = img.row(y, 0).data();
  if (img.channels() == 1) {
    for (int x = 0; x < w; ++x) dst[x * kLanes] = static_cast<double>(r[x]);
    return;
  }
  const float* g = img.row(y, 1).data();
  const float* b = img.row(y, 2).data();
  for (int x = 0; x < w; ++x) {
    const float v = 0.299f * r[x] + 0.587f * g[x] + 0.114f * b[x];
    dst[x * kLanes] = static_cast<double>(v);
  }
}

void zero_lane(double* dst, int w) {
  for (int x = 0; x < w; ++x) dst[x * kLanes] = 0.0;
}

// The row pass of the 2-D transform, into `ws.groups` (GroupLayout): line i
// packs rows 2i and 2i + 1 as z = row0 + i*row1 — the odd
// last row alone, with a zero imaginary part — and each fft_lanes call
// transforms four lines; leftover lines run beside zero lines, whose
// outputs are dropped. A pair's two spectra untangle through Hermitian
// symmetry
//   F0[k] = (Z[k] + conj(Z[w-k])) / 2,  F1[k] = -i (Z[k] - conj(Z[w-k])) / 2,
// the odd row's bins are copied as they are, and bin k lands in lane k % 4
// of group k / 4 (the last group's lanes past w/2 get zeros). The untangle
// walks group by group, so each group's rows of the block are written
// together.
void row_pass(const Image& img, const PlannedFft& row_fft,
              const GroupLayout& layout, SpectrumWorkspace& ws) {
  const int w = img.width();
  const int h = img.height();
  const int hw = w / 2 + 1;
  const std::size_t line = static_cast<std::size_t>(w) * kLanes;
  const simd::SimdOps& ops = simd::ops();
  double* const zr = ws.lines.data();
  double* const zi = zr + line;
  const int lines = (h + 1) / 2;
  for (int first = 0; first < lines; first += kLanes) {
    const int used = std::min(kLanes, lines - first);
    for (int l = 0; l < kLanes; ++l) {
      const int y0 = 2 * (first + l);
      if (l < used) {
        load_luma(zr + l, img, y0);
      } else {
        zero_lane(zr + l, w);
      }
      if (l < used && y0 + 1 < h) {
        load_luma(zi + l, img, y0 + 1);
      } else {
        zero_lane(zi + l, w);
      }
    }
    ops.fft_lanes(row_fft.lanes(), zr, zi, ws.work.data());
    for (int grp = 0; grp < layout.count; ++grp) {
      double* const group_re = ws.groups.data() + layout.stride * grp;
      double* const group_im = group_re + layout.plane;
      for (int l = 0; l < used; ++l) {
        const int y0 = 2 * (first + l);
        const bool pair = y0 + 1 < h;
        const std::size_t row = static_cast<std::size_t>(y0) * kLanes;
        double* const r0 = group_re + row;
        double* const i0 = group_im + row;
        double* const r1 = r0 + kLanes;
        double* const i1 = i0 + kLanes;
        for (int c = 0; c < kLanes; ++c) {
          const int k = grp * kLanes + c;
          const std::size_t a = static_cast<std::size_t>(k) * kLanes + l;
          if (k >= hw) {
            r0[c] = i0[c] = 0.0;
            if (pair) r1[c] = i1[c] = 0.0;
          } else if (!pair) {
            r0[c] = zr[a];
            i0[c] = zi[a];
          } else if (k == 0) {
            r0[c] = zr[a];
            i0[c] = 0.0;
            r1[c] = zi[a];
            i1[c] = 0.0;
          } else {
            const std::size_t b = static_cast<std::size_t>(w - k) * kLanes + l;
            const double ar = zr[a], ai = zi[a];
            const double br = zr[b], bi = -zi[b];  // conj(Z[w-k])
            const double sum_r = ar + br, sum_i = ai + bi;
            const double diff_r = ar - br, diff_i = ai - bi;
            r0[c] = 0.5 * sum_r;
            i0[c] = 0.5 * sum_i;
            r1[c] = 0.5 * diff_i;
            i1[c] = -0.5 * diff_r;
          }
        }
      }
    }
  }
}

}  // namespace

SpectrumWorkspace& thread_spectrum_workspace() {
  thread_local TrackedWorkspace tracked;
  // Handout folds in what the previous use grew, so an export is off by
  // at most one image's growth.
  tracked.share.set(workspace_bytes(tracked.ws));
  return tracked.ws;
}


// The row pass, then group by group: the four columns' transform in place
// and, while the group is hot, the dispatched logs
// (simd::SimdOps::log_magnitudes) with their min and max — a full group in
// place over its h rows of four lanes, then four values per row into the
// stage; the last group row by row over its used lanes. The mirrored
// columns are never logged: their values are their partners', so the half
// plane's range is the full plane's. Two plan lookups per spectrum, one per
// axis (none for a side of 1).
HalfSpectrum half_log_spectrum(const Image& img) {
  DECAM_SPAN("signal/fft2d");
  DECAM_REQUIRE(!img.empty(), "spectrum of empty image");
  DECAM_REQUIRE(img.channels() == 1 || img.channels() == 3,
                "spectrum expects 1 or 3 channels");
  SpectrumWorkspace& ws = thread_spectrum_workspace();
  HalfSpectrum out;
  out.width = img.width();
  out.height = img.height();
  const int hw = out.half_width();
  const std::size_t h = static_cast<std::size_t>(out.height);
  const GroupLayout layout(out.width, out.height);
  const PlannedFft row_fft(static_cast<std::size_t>(out.width), false);
  const PlannedFft col_fft(h, false);
  size_exactly(ws.lines, 2 * static_cast<std::size_t>(out.width) * kLanes);
  size_exactly(ws.groups, layout.stride * layout.count);
  size_exactly(ws.work,
               kLanes * std::max(simd::fft_work_doubles(row_fft.lanes()),
                                 simd::fft_work_doubles(col_fft.lanes())));
  row_pass(img, row_fft, layout, ws);

  out.logmag.resize(h * hw);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  const simd::SimdOps& ops = simd::ops();
  for (int grp = 0; grp < layout.count; ++grp) {
    double* const re = ws.groups.data() + layout.stride * grp;
    double* const im = re + layout.plane;
    ops.fft_lanes(col_fft.lanes(), re, im, ws.work.data());
    double* const dst = out.logmag.data() + grp * kLanes;
    const int cols = std::min(kLanes, hw - grp * kLanes);
    if (cols == kLanes) {
      ops.log_magnitudes(re, re, im, static_cast<int>(h * kLanes), &lo, &hi);
      for (std::size_t y = 0; y < h; ++y) {
        std::copy_n(re + y * kLanes, kLanes, dst + y * hw);
      }
    } else {
      for (std::size_t y = 0; y < h; ++y) {
        ops.log_magnitudes(dst + y * hw, re + y * kLanes, im + y * kLanes,
                           cols, &lo, &hi);
      }
    }
  }
  out.lo = lo;
  out.hi = hi;
  thread_spectrum_workspace();  // fold any scratch growth into the gauge
  return out;
}

Image centered_log_spectrum(const Image& img) {
  const HalfSpectrum spectrum = half_log_spectrum(img);
  Image out = Image::uninitialized(img.width(), img.height(), 1);
  for (int y = 0; y < out.height(); ++y) {
    float* row = out.row(y).data();
    for (int x = 0; x < out.width(); ++x) row[x] = spectrum.normalized(x, y);
  }
  return out;
}

}  // namespace decam
