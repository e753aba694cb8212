#include "imaging/image.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace decam {
namespace {

std::size_t checked_size(int width, int height, int channels) {
  DECAM_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
  DECAM_REQUIRE(channels > 0, "channel count must be positive");
  return static_cast<std::size_t>(width) * height * channels;
}

}  // namespace

Image::Image(int width, int height, int channels, float fill)
    : width_(width), height_(height), channels_(channels) {
  data_.assign(checked_size(width, height, channels), fill);
}

Image Image::uninitialized(int width, int height, int channels) {
  Image img;
  img.data_.resize(checked_size(width, height, channels));
  img.width_ = width;
  img.height_ = height;
  img.channels_ = channels;
  return img;
}

float Image::at_clamped(int x, int y, int c) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return data_[index(x, y, c)];
}

std::span<float> Image::plane(int c) {
  DECAM_REQUIRE(c >= 0 && c < channels_, "channel out of range");
  return {data_.data() + c * plane_size(), plane_size()};
}

std::span<const float> Image::plane(int c) const {
  DECAM_REQUIRE(c >= 0 && c < channels_, "channel out of range");
  return {data_.data() + c * plane_size(), plane_size()};
}

std::span<float> Image::row(int y, int c) {
  DECAM_REQUIRE(y >= 0 && y < height_, "row out of range");
  DECAM_REQUIRE(c >= 0 && c < channels_, "channel out of range");
  return {data_.data() + index(0, y, c), static_cast<std::size_t>(width_)};
}

std::span<const float> Image::row(int y, int c) const {
  DECAM_REQUIRE(y >= 0 && y < height_, "row out of range");
  DECAM_REQUIRE(c >= 0 && c < channels_, "channel out of range");
  return {data_.data() + index(0, y, c), static_cast<std::size_t>(width_)};
}

Image& Image::clamp(float lo, float hi) {
  DECAM_REQUIRE(lo <= hi, "clamp bounds inverted");
  for (float& v : data_) v = std::clamp(v, lo, hi);
  return *this;
}

Image& Image::operator+=(const Image& other) {
  DECAM_REQUIRE(same_shape(other), "shape mismatch in operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Image& Image::operator-=(const Image& other) {
  DECAM_REQUIRE(same_shape(other), "shape mismatch in operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

std::vector<std::uint8_t> Image::to_u8() const {
  std::vector<std::uint8_t> out(size());
  std::size_t i = 0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      for (int c = 0; c < channels_; ++c) {
        const float v = std::clamp(data_[index(x, y, c)], 0.0f, 255.0f);
        out[i++] = static_cast<std::uint8_t>(std::lround(v));
      }
    }
  }
  return out;
}

Image Image::from_u8(std::span<const std::uint8_t> data, int width, int height,
                     int channels) {
  DECAM_REQUIRE(data.size() == static_cast<std::size_t>(width) * height * channels,
                "interleaved byte buffer size mismatch");
  Image img = uninitialized(width, height, channels);
  const std::size_t row_bytes = static_cast<std::size_t>(width) * channels;
  const simd::SimdOps& ops = simd::ops();
  thread_local std::vector<float*> dst;  // per-thread: no block per decode
  dst.resize(static_cast<std::size_t>(channels));
  for (int y = 0; y < height; ++y) {
    for (int c = 0; c < channels; ++c) dst[c] = img.row(y, c).data();
    ops.deinterleave_u8(dst.data(), data.data() + y * row_bytes, channels,
                        width);
  }
  return img;
}

float Image::min_value() const {
  DECAM_REQUIRE(!empty(), "min_value of empty image");
  return *std::min_element(data_.begin(), data_.end());
}

float Image::max_value() const {
  DECAM_REQUIRE(!empty(), "max_value of empty image");
  return *std::max_element(data_.begin(), data_.end());
}

Image absdiff(const Image& a, const Image& b) {
  DECAM_REQUIRE(a.same_shape(b), "shape mismatch in absdiff");
  Image out(a.width(), a.height(), a.channels());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < a.size(); ++i) po[i] = std::fabs(pa[i] - pb[i]);
  return out;
}

}  // namespace decam
