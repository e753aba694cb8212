// Round-trip and error-handling tests for the PNM/BMP codecs.
#include "imaging/image_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "data/rng.h"
#include "data/synth.h"

namespace decam {
namespace {

class ImageIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("decam_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static Image random_image(int w, int h, int channels, std::uint64_t seed) {
    data::Rng rng(seed);
    Image img(w, h, channels);
    for (int c = 0; c < channels; ++c) {
      for (float& v : img.plane(c)) {
        v = static_cast<float>(rng.next_int(0, 255));
      }
    }
    return img;
  }

  std::filesystem::path dir_;
};

TEST_F(ImageIoTest, PpmRoundTripColor) {
  const Image img = random_image(17, 9, 3, 1);
  write_pnm(img, path("a.ppm"));
  const Image back = read_pnm(path("a.ppm"));
  ASSERT_TRUE(back.same_shape(img));
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        EXPECT_FLOAT_EQ(back.at(x, y, c), img.at(x, y, c));
      }
    }
  }
}

TEST_F(ImageIoTest, PgmRoundTripGray) {
  const Image img = random_image(5, 31, 1, 2);
  write_pnm(img, path("a.pgm"));
  const Image back = read_pnm(path("a.pgm"));
  ASSERT_TRUE(back.same_shape(img));
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      EXPECT_FLOAT_EQ(back.at(x, y, 0), img.at(x, y, 0));
    }
  }
}

TEST_F(ImageIoTest, PnmRejectsTwoChannelImages) {
  EXPECT_THROW(write_pnm(Image(2, 2, 2), path("bad.pnm")),
               std::invalid_argument);
}

TEST_F(ImageIoTest, PnmReadRejectsMissingFile) {
  EXPECT_THROW(read_pnm(path("missing.ppm")), IoError);
}

TEST_F(ImageIoTest, PnmReadRejectsBadMagic) {
  std::ofstream out(path("bad.ppm"), std::ios::binary);
  out << "P9\n2 2\n255\nxxxx";
  out.close();
  EXPECT_THROW(read_pnm(path("bad.ppm")), IoError);
}

TEST_F(ImageIoTest, PnmReadRejectsTruncatedPixels) {
  std::ofstream out(path("short.ppm"), std::ios::binary);
  out << "P6\n4 4\n255\nabc";  // 3 bytes instead of 48
  out.close();
  EXPECT_THROW(read_pnm(path("short.ppm")), IoError);
}

TEST_F(ImageIoTest, PnmReadHandlesComments) {
  std::ofstream out(path("comment.pgm"), std::ios::binary);
  out << "P5\n# a comment line\n2 1\n# another\n255\n";
  out.put(static_cast<char>(7));
  out.put(static_cast<char>(200));
  out.close();
  const Image img = read_pnm(path("comment.pgm"));
  EXPECT_EQ(img.width(), 2);
  EXPECT_EQ(img.height(), 1);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 7.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0, 0), 200.0f);
}

TEST_F(ImageIoTest, BmpRoundTripColorWithPadding) {
  // Width 3 forces a non-trivial row padding (9 bytes -> 12).
  const Image img = random_image(3, 5, 3, 3);
  write_bmp(img, path("a.bmp"));
  const Image back = read_bmp(path("a.bmp"));
  ASSERT_TRUE(back.same_shape(img));
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        EXPECT_FLOAT_EQ(back.at(x, y, c), img.at(x, y, c));
      }
    }
  }
}

// A negative height marks a top-down BMP: the same rows stored first row
// first. It must decode to the same planes as its bottom-up twin.
TEST_F(ImageIoTest, BmpTopDownMatchesBottomUpTwin) {
  // Width 5: 15 pixel bytes padded to a 16-byte row.
  const Image img = random_image(5, 4, 3, 4);
  write_bmp(img, path("up.bmp"));
  std::ifstream in(path("up.bmp"), std::ios::binary);
  const std::vector<char> up((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  constexpr std::size_t kOffset = 54;
  constexpr std::size_t kStride = 16;
  const int h = img.height();
  ASSERT_EQ(up.size(), kOffset + kStride * h);
  std::vector<char> down = up;
  const auto neg_h = static_cast<std::uint32_t>(-h);
  for (int i = 0; i < 4; ++i) down[22 + i] = static_cast<char>(neg_h >> (8 * i));
  for (int r = 0; r < h; ++r) {
    std::copy_n(up.begin() + kOffset + kStride * (h - 1 - r), kStride,
                down.begin() + kOffset + kStride * r);
  }
  {
    std::ofstream out(path("down.bmp"), std::ios::binary);
    out.write(down.data(), static_cast<std::streamsize>(down.size()));
  }
  const Image bottom_up = read_bmp(path("up.bmp"));
  const Image top_down = read_bmp(path("down.bmp"));
  ASSERT_TRUE(top_down.same_shape(img));
  ASSERT_TRUE(bottom_up.same_shape(img));
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_EQ(top_down.data()[i], bottom_up.data()[i]) << "sample " << i;
    EXPECT_EQ(top_down.data()[i], img.data()[i]) << "sample " << i;
  }
}

TEST_F(ImageIoTest, BmpGrayReplicatesToRgb) {
  Image gray(2, 2, 1);
  gray.at(0, 0, 0) = 10.0f;
  gray.at(1, 1, 0) = 200.0f;
  write_bmp(gray, path("g.bmp"));
  const Image back = read_bmp(path("g.bmp"));
  EXPECT_EQ(back.channels(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(back.at(0, 0, c), 10.0f);
    EXPECT_FLOAT_EQ(back.at(1, 1, c), 200.0f);
  }
}

TEST_F(ImageIoTest, BmpReadRejectsGarbage) {
  std::ofstream out(path("junk.bmp"), std::ios::binary);
  out << "not a bitmap at all";
  out.close();
  EXPECT_THROW(read_bmp(path("junk.bmp")), IoError);
}

TEST_F(ImageIoTest, SyntheticSceneSurvivesPnm) {
  data::Rng rng(99);
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = 64;
  params.max_side = 96;
  const Image scene = generate_scene(params, rng);
  write_pnm(scene, path("scene.ppm"));
  const Image back = read_pnm(path("scene.ppm"));
  ASSERT_TRUE(back.same_shape(scene));
  // Scenes are already 8-bit quantised, so the round trip is lossless.
  for (int y = 0; y < scene.height(); y += 7) {
    for (int x = 0; x < scene.width(); x += 7) {
      EXPECT_FLOAT_EQ(back.at(x, y, 0), scene.at(x, y, 0));
    }
  }
}

}  // namespace
}  // namespace decam
