#include "imaging/image_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "obs/span.h"

namespace decam {
namespace {

// Hard ceiling on decoded pixel count (per image, all channels). Keeps a
// 20-byte header claiming a gigapixel canvas from turning into a
// multi-gigabyte allocation before the (missing) pixel data is even read.
constexpr std::size_t kMaxDecodePixels = std::size_t{1} << 24;  // 16 Mpx

// Skips PNM whitespace and '#' comments, then parses a decimal integer.
// Bounded: a digit run that exceeds the largest header field any valid
// file could carry is rejected instead of silently overflowing `int`.
int read_pnm_int(std::istream& in, const std::string& path) {
  int ch = in.get();
  while (ch != EOF) {
    if (ch == '#') {
      while (ch != EOF && ch != '\n') ch = in.get();
    } else if (!std::isspace(ch)) {
      break;
    }
    ch = in.get();
  }
  if (ch == EOF || !std::isdigit(ch)) {
    throw IoError(path + ": malformed PNM header");
  }
  long value = 0;
  while (ch != EOF && std::isdigit(ch)) {
    value = value * 10 + (ch - '0');
    if (value > static_cast<long>(kMaxDecodePixels)) {
      throw IoError(path + ": PNM header field out of range");
    }
    ch = in.get();
  }
  return static_cast<int>(value);
}

void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

void write_pnm(const Image& img, const std::string& path) {
  DECAM_REQUIRE(img.channels() == 1 || img.channels() == 3,
                "PNM supports 1 or 3 channels");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError(path + ": cannot open for writing");
  out << (img.channels() == 1 ? "P5" : "P6") << "\n"
      << img.width() << " " << img.height() << "\n255\n";
  const std::vector<std::uint8_t> bytes = img.to_u8();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw IoError(path + ": short write");
}

Image read_pnm(const std::string& path) {
  DECAM_SPAN("imaging/decode");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError(path + ": cannot open for reading");
  char magic[2] = {};
  in.read(magic, 2);
  if (!in || magic[0] != 'P' || (magic[1] != '5' && magic[1] != '6')) {
    throw IoError(path + ": not a binary PGM/PPM file");
  }
  const int channels = magic[1] == '5' ? 1 : 3;
  const int width = read_pnm_int(in, path);
  const int height = read_pnm_int(in, path);
  const int maxval = read_pnm_int(in, path);
  if (width <= 0 || height <= 0 || maxval <= 0 || maxval > 255) {
    throw IoError(path + ": unsupported PNM geometry/depth");
  }
  if (static_cast<std::size_t>(width) * static_cast<std::size_t>(height) >
      kMaxDecodePixels) {
    throw IoError(path + ": PNM image too large");
  }
  // read_pnm_int consumed the single whitespace byte after maxval already,
  // so the stream now points at the first pixel byte.
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(width) * height * channels);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::size_t>(in.gcount()) != bytes.size()) {
    throw IoError(path + ": truncated pixel data");
  }
  return Image::from_u8(bytes, width, height, channels);
}

void write_bmp(const Image& img, const std::string& path) {
  DECAM_REQUIRE(img.channels() == 1 || img.channels() == 3,
                "BMP supports 1 or 3 channels");
  const int w = img.width();
  const int h = img.height();
  const int row_stride = (w * 3 + 3) & ~3;
  const std::uint32_t pixel_bytes = static_cast<std::uint32_t>(row_stride) * h;
  std::vector<std::uint8_t> buf;
  buf.reserve(54 + pixel_bytes);
  // BITMAPFILEHEADER
  buf.push_back('B');
  buf.push_back('M');
  put_u32(buf, 54 + pixel_bytes);
  put_u32(buf, 0);
  put_u32(buf, 54);
  // BITMAPINFOHEADER
  put_u32(buf, 40);
  put_u32(buf, static_cast<std::uint32_t>(w));
  put_u32(buf, static_cast<std::uint32_t>(h));  // bottom-up
  put_u16(buf, 1);
  put_u16(buf, 24);
  put_u32(buf, 0);  // BI_RGB
  put_u32(buf, pixel_bytes);
  put_u32(buf, 2835);
  put_u32(buf, 2835);
  put_u32(buf, 0);
  put_u32(buf, 0);

  auto quantise = [](float v) {
    return static_cast<std::uint8_t>(
        std::lround(std::clamp(v, 0.0f, 255.0f)));
  };
  for (int y = h - 1; y >= 0; --y) {
    const std::size_t row_start = buf.size();
    for (int x = 0; x < w; ++x) {
      if (img.channels() == 1) {
        const std::uint8_t g = quantise(img.at(x, y, 0));
        buf.push_back(g);
        buf.push_back(g);
        buf.push_back(g);
      } else {
        buf.push_back(quantise(img.at(x, y, 2)));  // B
        buf.push_back(quantise(img.at(x, y, 1)));  // G
        buf.push_back(quantise(img.at(x, y, 0)));  // R
      }
    }
    while (buf.size() - row_start < static_cast<std::size_t>(row_stride)) {
      buf.push_back(0);
    }
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError(path + ": cannot open for writing");
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw IoError(path + ": short write");
}

Image read_bmp(const std::string& path) {
  DECAM_SPAN("imaging/decode");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError(path + ": cannot open for reading");
  std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  if (buf.size() < 54 || buf[0] != 'B' || buf[1] != 'M') {
    throw IoError(path + ": not a BMP file");
  }
  const std::uint32_t data_offset = get_u32(&buf[10]);
  const std::uint32_t header_size = get_u32(&buf[14]);
  if (header_size < 40) throw IoError(path + ": unsupported BMP header");
  const std::int32_t w = static_cast<std::int32_t>(get_u32(&buf[18]));
  std::int32_t h = static_cast<std::int32_t>(get_u32(&buf[22]));
  const std::uint16_t bpp = get_u16(&buf[28]);
  const std::uint32_t compression = get_u32(&buf[30]);
  if (bpp != 24 || compression != 0) {
    throw IoError(path + ": only uncompressed 24-bit BMP supported");
  }
  const bool top_down = h < 0;
  // Negate via int64 first: h == INT32_MIN would make `-h` signed overflow.
  const std::int64_t abs_h = top_down ? -static_cast<std::int64_t>(h) : h;
  if (w <= 0 || abs_h <= 0 || abs_h > static_cast<std::int64_t>(kMaxDecodePixels)) {
    throw IoError(path + ": bad BMP dimensions");
  }
  h = static_cast<std::int32_t>(abs_h);
  if (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) >
      kMaxDecodePixels) {
    throw IoError(path + ": BMP image too large");
  }
  const std::size_t row_stride = (static_cast<std::size_t>(w) * 3 + 3) & ~std::size_t{3};
  if (buf.size() < data_offset ||
      buf.size() - data_offset < row_stride * static_cast<std::size_t>(h)) {
    throw IoError(path + ": truncated BMP pixel data");
  }
  Image img(w, h, 3);
  for (int y = 0; y < h; ++y) {
    const int src_row = top_down ? y : (h - 1 - y);
    const std::uint8_t* row = &buf[data_offset + row_stride * src_row];
    for (int x = 0; x < w; ++x) {
      img.at(x, y, 2) = static_cast<float>(row[x * 3 + 0]);
      img.at(x, y, 1) = static_cast<float>(row[x * 3 + 1]);
      img.at(x, y, 0) = static_cast<float>(row[x * 3 + 2]);
    }
  }
  return img;
}

}  // namespace decam
