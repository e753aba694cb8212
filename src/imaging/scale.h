// 2-D image resampling built on the 1-D kernel tables of kernels.h.
//
// resize() is the function every Decamouflage detector and every attack uses
// as its model of the victim pipeline's pre-processing step. It matches
// cv::resize semantics per interpolation mode (see kernels.h for the
// coordinate convention and the deliberate absence of anti-aliasing).
#pragma once

#include <memory>

#include "imaging/image.h"
#include "imaging/kernels.h"

namespace decam {

struct ResizeScratch;

/// resize(src, out_width, out_height, algo) one output row at a time. The
/// constructor runs the horizontal pass, four source rows at a time
/// (SimdOps::resize_rows4, each row as apply_kernel computes it), into the
/// calling thread's resize scratch (kept across calls, counted as
/// `mem/resize_scratch_bytes`), and each row is one vertical pass over it. resize() stores every row into a
/// plane; the scaling detector folds each row of its round trip straight
/// into its reduction, so that plane is never stored. Rows may be asked
/// for in any order. One ResizeRows per thread at a time: a second one
/// while the first is alive is a library bug and aborts.
class ResizeRows final : public RowSource {
 public:
  ResizeRows(const Image& src, int out_width, int out_height, ScaleAlgo algo);
  ~ResizeRows();
  ResizeRows(const ResizeRows&) = delete;
  ResizeRows& operator=(const ResizeRows&) = delete;

  /// The row in the scratch's row buffer.
  const float* row(int y, int c) override;
  /// Writes row y of channel c to `out` (width() floats).
  void write_row(int y, int c, float* out) const;

 private:
  std::shared_ptr<const KernelTable> vert_;
  ResizeScratch* scratch_;
  std::size_t mid_plane_;  // samples per channel of the horizontal pass
};

/// Resamples `src` to out_width x out_height with the given algorithm.
/// All channels are processed independently; output values are NOT clamped
/// (bicubic/lanczos can overshoot — callers quantising to 8-bit should
/// clamp, and the detectors deliberately operate on the raw values).
Image resize(const Image& src, int out_width, int out_height, ScaleAlgo algo);

/// Convenience: square resize, the common CNN-input case (e.g. 224).
inline Image resize(const Image& src, int out_side, ScaleAlgo algo) {
  return resize(src, out_side, out_side, algo);
}

/// Downscale-then-upscale round trip back to the source geometry — the core
/// operation of the paper's scaling detection method (Section III-A).
/// `down` is the victim pipeline's scaler; `up` the reconstruction scaler.
Image scale_round_trip(const Image& src, int down_width, int down_height,
                       ScaleAlgo down, ScaleAlgo up);

}  // namespace decam
