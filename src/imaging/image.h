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
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"

#if defined(__SANITIZE_ADDRESS__)
#define DECAM_POISON_UNSET_SAMPLES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DECAM_POISON_UNSET_SAMPLES 1
#endif
#endif

namespace decam {

/// Allocator whose value-less construct() default-initialises, so a
/// resize() leaves floats unset instead of zero-filling them; construction
/// with a value (assign(n, fill), copies) goes through std::construct_at
/// as before. Under AddressSanitizer an unset float is a quiet NaN
/// instead, so a writer that skips a sample changes what the parity
/// suites compare.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
#ifdef DECAM_POISON_UNSET_SAMPLES
    if constexpr (std::is_floating_point_v<U>) {
      ::new (static_cast<void*>(p)) U(std::numeric_limits<U>::quiet_NaN());
      return;
    }
#endif
    ::new (static_cast<void*>(p)) U;
  }
};

/// Sizes per-thread scratch to exactly n elements, keeping its capacity,
/// with every element unset again (a quiet NaN under AddressSanitizer, so
/// a read of an element no writer stored shows in the parity suites).
template <typename T>
void size_exactly(std::vector<T, DefaultInitAllocator<T>>& buffer,
                  std::size_t n) {
  buffer.clear();
  buffer.resize(n);
}

class Image {
 public:
  /// Empty image (width == height == channels == 0).
  Image() = default;

  /// Allocates a width*height image with `channels` planes, zero-filled.
  Image(int width, int height, int channels = 1, float fill = 0.0f);

  /// The same geometry with every sample left unset (quiet NaN under
  /// AddressSanitizer): only for writers that store every sample before
  /// anything reads one.
  static Image uninitialized(int width, int height, int channels = 1);

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
  std::vector<float, DefaultInitAllocator<float>> data_;
};

/// Elementwise absolute difference |a - b| (shape-checked).
Image absdiff(const Image& a, const Image& b);

/// An image handed out one row at a time, so that a reduction can read a
/// derived image (a resize, a rank filter) without its planes ever being
/// stored. Callers ask for rows in planar order: channel ascending, then
/// row ascending, each row once.
class RowSource {
 public:
  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  bool same_shape(const Image& image) const {
    return width_ == image.width() && height_ == image.height() &&
           channels_ == image.channels();
  }

  /// Row y of channel c: width() samples, valid until the next call.
  virtual const float* row(int y, int c) = 0;

 protected:
  RowSource(int width, int height, int channels)
      : width_(width), height_(height), channels_(channels) {}
  ~RowSource() = default;

 private:
  int width_;
  int height_;
  int channels_;
};

/// A stored image as a RowSource: its rows, read in place.
class PlaneRows final : public RowSource {
 public:
  explicit PlaneRows(const Image& image)
      : RowSource(image.width(), image.height(), image.channels()),
        image_(image) {}
  const float* row(int y, int c) override { return image_.row(y, c).data(); }

 private:
  const Image& image_;
};

}  // namespace decam
