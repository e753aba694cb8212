// Hostile-input wall for the PNM/BMP codecs (ISSUE 10 satellite). Every
// decoder here is fed files an attacker controls — the scan CLI reads
// arbitrary paths — so the contract is strict: malformed input throws
// IoError; it never crashes, never hangs, never allocates gigabytes off a
// 20-byte header, and never trips ASan/UBSan. The corpus covers truncated
// headers, absurd and overflowing dimensions, bad maxval/bpp fields,
// short pixel payloads, and randomized single-byte corruption of valid
// files (which must either throw IoError or decode to SOME valid image —
// a flipped pixel byte is legitimately still a picture).
#include "imaging/image_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/rng.h"

namespace decam {
namespace {

class ImageIoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("decam_io_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_bytes(const std::string& name,
                          const std::vector<std::uint8_t>& bytes) const {
    const std::string p = (dir_ / name).string();
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  std::string write_text(const std::string& name,
                         const std::string& text) const {
    return write_bytes(name,
                       std::vector<std::uint8_t>(text.begin(), text.end()));
  }

  static std::vector<std::uint8_t> read_bytes(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
  }

  static Image small_image(int w, int h, int channels) {
    Image img(w, h, channels);
    for (int c = 0; c < channels; ++c) {
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          img.at(x, y, c) = static_cast<float>((x * 31 + y * 7 + c * 53) % 256);
        }
      }
    }
    return img;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// PNM: truncated and malformed headers.

TEST_F(ImageIoFuzzTest, PnmEmptyFileThrows) {
  EXPECT_THROW(read_pnm(write_bytes("empty.pgm", {})), IoError);
}

TEST_F(ImageIoFuzzTest, PnmWrongMagicThrows) {
  for (const char* magic : {"P4", "P7", "Px", "QQ", "\x00\x00", "P"}) {
    EXPECT_THROW(read_pnm(write_text("magic.pgm", magic)), IoError)
        << "magic '" << magic << "'";
  }
}

TEST_F(ImageIoFuzzTest, PnmTruncatedHeaderThrows) {
  for (const char* header : {"P5", "P5\n", "P5\n12", "P5\n12 8", "P5\n12 8\n",
                             "P5\n# only a comment"}) {
    EXPECT_THROW(read_pnm(write_text("trunc.pgm", header)), IoError)
        << "header '" << header << "'";
  }
}

TEST_F(ImageIoFuzzTest, PnmNonNumericHeaderThrows) {
  EXPECT_THROW(read_pnm(write_text("alpha.pgm", "P5\nab cd\n255\n")), IoError);
  EXPECT_THROW(read_pnm(write_text("neg.pgm", "P5\n-3 4\n255\n")), IoError);
}

// A digit run long enough to overflow int must be rejected by the bounded
// parser, not wrap into some small positive number (signed overflow is UB).
TEST_F(ImageIoFuzzTest, PnmOverflowingDimensionThrows) {
  EXPECT_THROW(
      read_pnm(write_text("wide.pgm", "P5\n99999999999999999999 4\n255\n")),
      IoError);
  EXPECT_THROW(read_pnm(write_text("tall.pgm", "P5\n4 4294967297\n255\n")),
               IoError);
  EXPECT_THROW(
      read_pnm(write_text("deep.pgm", "P5\n4 4\n99999999999999999999\n")),
      IoError);
}

TEST_F(ImageIoFuzzTest, PnmZeroDimensionThrows) {
  EXPECT_THROW(read_pnm(write_text("zw.pgm", "P5\n0 4\n255\n")), IoError);
  EXPECT_THROW(read_pnm(write_text("zh.pgm", "P5\n4 0\n255\n")), IoError);
}

// Header claims a gigapixel canvas: must throw BEFORE allocating pixel
// storage (each dimension parses fine; the product trips the decode cap).
TEST_F(ImageIoFuzzTest, PnmAbsurdPixelCountThrows) {
  EXPECT_THROW(read_pnm(write_text("big.pgm", "P5\n16777216 16777216\n255\n")),
               IoError);
  EXPECT_THROW(read_pnm(write_text("big2.ppm", "P6\n5000 5000\n255\n")),
               IoError);
}

// Only maxval 255 is read: a shallower file's samples would be misread as
// 0-255, so it is refused with the maxval named, payload present or not.
TEST_F(ImageIoFuzzTest, PnmBadMaxvalThrows) {
  EXPECT_THROW(read_pnm(write_text("m0.pgm", "P5\n4 4\n0\n")), IoError);
  EXPECT_THROW(read_pnm(write_text("m16.pgm", "P5\n4 4\n65535\n")), IoError);
  const std::string four_bit =
      write_text("m15.pgm", "P5\n4 4\n15\n" + std::string(16, '\x0f'));
  try {
    (void)read_pnm(four_bit);
    ADD_FAILURE() << "maxval 15 was read";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("maxval 15"), std::string::npos)
        << e.what();
  }
}

TEST_F(ImageIoFuzzTest, PnmShortPayloadThrows) {
  std::string file = "P5\n8 8\n255\n";
  file += std::string(17, '\x42');  // 17 of the promised 64 bytes
  EXPECT_THROW(read_pnm(write_text("short.pgm", file)), IoError);
  EXPECT_THROW(read_pnm(write_text("nopix.ppm", "P6\n4 4\n255\n")), IoError);
}

// ---------------------------------------------------------------------------
// BMP: malformed headers and geometry.

TEST_F(ImageIoFuzzTest, BmpTooShortThrows) {
  EXPECT_THROW(read_bmp(write_bytes("empty.bmp", {})), IoError);
  EXPECT_THROW(read_bmp(write_bytes("tiny.bmp", {'B', 'M', 0, 0})), IoError);
  EXPECT_THROW(read_bmp(write_bytes("h53.bmp",
                                    std::vector<std::uint8_t>(53, 0x42))),
               IoError);
}

TEST_F(ImageIoFuzzTest, BmpWrongMagicThrows) {
  std::vector<std::uint8_t> buf(64, 0);
  buf[0] = 'X';
  buf[1] = 'M';
  EXPECT_THROW(read_bmp(write_bytes("magic.bmp", buf)), IoError);
}

// Builds a structurally valid 24-bit BMP header + payload, then lets each
// test corrupt one field.
std::vector<std::uint8_t> valid_bmp_bytes() {
  Image img(6, 5, 3);
  for (int c = 0; c < 3; ++c) {
    for (float& v : img.plane(c)) v = 100.0f + 10.0f * c;
  }
  const std::string p =
      (std::filesystem::temp_directory_path() /
       ("decam_fuzz_seed_" + std::to_string(::getpid()) + ".bmp"))
          .string();
  write_bmp(img, p);
  std::ifstream in(p, std::ios::binary);
  std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::filesystem::remove(p);
  return buf;
}

void poke_u32(std::vector<std::uint8_t>& buf, std::size_t off,
              std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST_F(ImageIoFuzzTest, BmpUnsupportedFormatThrows) {
  auto buf = valid_bmp_bytes();
  buf[28] = 32;  // bpp
  EXPECT_THROW(read_bmp(write_bytes("bpp.bmp", buf)), IoError);

  buf = valid_bmp_bytes();
  poke_u32(buf, 30, 1);  // BI_RLE8 compression
  EXPECT_THROW(read_bmp(write_bytes("rle.bmp", buf)), IoError);

  buf = valid_bmp_bytes();
  poke_u32(buf, 14, 12);  // pre-BITMAPINFOHEADER core header
  EXPECT_THROW(read_bmp(write_bytes("core.bmp", buf)), IoError);
}

// height == INT32_MIN: negating it to get the bottom-up row count is signed
// overflow unless the decoder widens first. Must throw, not UB.
TEST_F(ImageIoFuzzTest, BmpIntMinHeightThrows) {
  auto buf = valid_bmp_bytes();
  poke_u32(buf, 22, 0x80000000u);
  EXPECT_THROW(read_bmp(write_bytes("intmin.bmp", buf)), IoError);
}

TEST_F(ImageIoFuzzTest, BmpBadDimensionsThrow) {
  for (const std::uint32_t w : {0u, 0x80000001u, 0xFFFFFFFFu}) {
    auto buf = valid_bmp_bytes();
    poke_u32(buf, 18, w);
    EXPECT_THROW(read_bmp(write_bytes("w.bmp", buf)), IoError) << "w=" << w;
  }
  auto buf = valid_bmp_bytes();
  poke_u32(buf, 22, 0);
  EXPECT_THROW(read_bmp(write_bytes("h0.bmp", buf)), IoError);
}

// Dimensions whose product overflows the decode cap must throw before the
// pixel allocation, even though each fits an int32 individually.
TEST_F(ImageIoFuzzTest, BmpAbsurdPixelCountThrows) {
  auto buf = valid_bmp_bytes();
  poke_u32(buf, 18, 70000);
  poke_u32(buf, 22, 70000);
  EXPECT_THROW(read_bmp(write_bytes("big.bmp", buf)), IoError);
}

// data_offset past EOF (including 0xFFFFFFFF, which would wrap a naive
// `offset + size` bound check) must throw, not read out of bounds; so must
// an offset inside the 14 + 40 header bytes, which would decode the headers
// as pixels.
TEST_F(ImageIoFuzzTest, BmpBadDataOffsetThrows) {
  for (const std::uint32_t off :
       {0u, 20u, 53u, 100000u, 0xFFFFFFF0u, 0xFFFFFFFFu}) {
    auto buf = valid_bmp_bytes();
    poke_u32(buf, 10, off);
    EXPECT_THROW(read_bmp(write_bytes("off.bmp", buf)), IoError)
        << "offset=" << off;
  }
}

// A 124-byte (BITMAPV5) info header puts the pixels at 14 + 124 = 138.
TEST_F(ImageIoFuzzTest, BmpV5HeaderOffsetDecodes) {
  auto buf = valid_bmp_bytes();
  buf.insert(buf.begin() + 54, 124 - 40, 0);
  poke_u32(buf, 10, 138);
  poke_u32(buf, 14, 124);
  const Image img = read_bmp(write_bytes("v5.bmp", buf));
  ASSERT_EQ(img.width(), 6);
  ASSERT_EQ(img.height(), 5);
  for (int c = 0; c < 3; ++c) {
    for (const float v : img.plane(c)) EXPECT_EQ(v, 100.0f + 10.0f * c);
  }
}

TEST_F(ImageIoFuzzTest, BmpTruncatedPixelDataThrows) {
  auto buf = valid_bmp_bytes();
  buf.resize(buf.size() - 7);
  EXPECT_THROW(read_bmp(write_bytes("trunc.bmp", buf)), IoError);
}

// ---------------------------------------------------------------------------
// Randomized corruption: flip bytes in valid files. Every outcome must be
// either IoError or a successfully decoded image — nothing else.

template <typename Reader>
void corruption_sweep(const std::vector<std::uint8_t>& valid,
                      const Reader& read, const std::string& path,
                      std::uint64_t seed, int trials) {
  data::Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> buf = valid;
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_u64() % buf.size();
      buf[pos] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() % 255));
    }
    {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(buf.data()),
                static_cast<std::streamsize>(buf.size()));
    }
    try {
      const Image img = read(path);
      EXPECT_GT(img.width(), 0);
      EXPECT_GT(img.height(), 0);
    } catch (const IoError&) {
      // Equally acceptable: the corruption broke the file's grammar.
    }
  }
}

TEST_F(ImageIoFuzzTest, PnmBitFlipCorpusNeverCrashes) {
  const Image img = small_image(9, 7, 1);
  const std::string seed_path = (dir_ / "seed.pgm").string();
  write_pnm(img, seed_path);
  corruption_sweep(read_bytes(seed_path), &read_pnm,
                   (dir_ / "mut.pgm").string(), /*seed=*/101, /*trials=*/200);

  const Image rgb = small_image(8, 6, 3);
  write_pnm(rgb, seed_path);
  corruption_sweep(read_bytes(seed_path), &read_pnm,
                   (dir_ / "mut.ppm").string(), /*seed=*/102, /*trials=*/200);
}

TEST_F(ImageIoFuzzTest, BmpBitFlipCorpusNeverCrashes) {
  corruption_sweep(valid_bmp_bytes(), &read_bmp, (dir_ / "mut.bmp").string(),
                   /*seed=*/103, /*trials=*/200);
}

// Pure garbage of assorted sizes: both decoders must reject (or, for the
// vanishingly unlikely valid blob, decode) without hanging or crashing.
TEST_F(ImageIoFuzzTest, RandomBlobsNeverCrash) {
  data::Rng rng(104);
  for (const std::size_t len : {0u, 1u, 2u, 16u, 54u, 100u, 4096u}) {
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    const std::string p = write_bytes("blob.bin", buf);
    for (int variant = 0; variant < 2; ++variant) {
      try {
        if (variant == 0) {
          (void)read_pnm(p);
        } else {
          (void)read_bmp(p);
        }
      } catch (const IoError&) {
      }
    }
  }
}

}  // namespace
}  // namespace decam
