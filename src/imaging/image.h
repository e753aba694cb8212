// decam::Image — the pixel container every subsystem operates on.
//
// Storage is planar row-major float: plane(c) is a contiguous H*W block and
// pixel (x, y) of channel c lives at data()[(c*H + y)*W + x]. Planar layout
// keeps per-channel operations (resampling, filtering, FFT) cache-friendly
// and lets them hand a whole channel to 1-D kernels as a std::span.
//
// Pixel values follow the paper's 8-bit convention: the nominal range is
// [0, 255] stored as float. Nothing clamps automatically — intermediate
// results (residuals, spectra) may leave the range; call clamp() before
// quantising with to_u8().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"

namespace decam {

class Image {
 public:
  /// Empty image (width == height == channels == 0).
  Image() = default;

  /// Allocates a width*height image with `channels` planes, zero-filled.
  Image(int width, int height, int channels = 1, float fill = 0.0f);

  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  bool empty() const { return data_.empty(); }

  /// Number of floats per plane (width * height).
  std::size_t plane_size() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  /// Total number of floats across all planes.
  std::size_t size() const { return data_.size(); }

  /// True when the other image has identical width, height and channels.
  bool same_shape(const Image& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           channels_ == other.channels_;
  }

  float& at(int x, int y, int c = 0) {
    DECAM_ASSERT(in_bounds(x, y, c));
    return data_[index(x, y, c)];
  }
  float at(int x, int y, int c = 0) const {
    DECAM_ASSERT(in_bounds(x, y, c));
    return data_[index(x, y, c)];
  }

  /// Clamped accessor: coordinates outside the image are replicated from the
  /// nearest edge pixel (the border mode used by all our filters/scalers).
  float at_clamped(int x, int y, int c = 0) const;

  std::span<float> plane(int c);
  std::span<const float> plane(int c) const;

  /// One row of one plane.
  std::span<float> row(int y, int c = 0);
  std::span<const float> row(int y, int c = 0) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Clamp every value into [lo, hi] in place; returns *this for chaining.
  Image& clamp(float lo = 0.0f, float hi = 255.0f);

  /// Per-element arithmetic with shape checking (throws on mismatch).
  Image& operator+=(const Image& other);
  Image& operator-=(const Image& other);
  Image& operator*=(float s);

  /// Interleaved 8-bit export (RGBRGB... or grayscale), clamping to [0,255].
  std::vector<std::uint8_t> to_u8() const;

  /// Build from interleaved 8-bit data, e.g. decoded file contents.
  static Image from_u8(std::span<const std::uint8_t> data, int width,
                       int height, int channels);

  /// Summary statistics over all planes.
  float min_value() const;
  float max_value() const;

 private:
  bool in_bounds(int x, int y, int c) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 &&
           c < channels_;
  }
  std::size_t index(int x, int y, int c) const {
    return (static_cast<std::size_t>(c) * height_ + y) * width_ + x;
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<float> data_;
};

/// Elementwise absolute difference |a - b| (shape-checked).
Image absdiff(const Image& a, const Image& b);

}  // namespace decam
