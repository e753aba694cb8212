// Tests for calibration profile persistence.
#include "core/calibration_io.h"

#include "common/error.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace decam::core {
namespace {

class CalibrationIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("decam_calib_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path path(const std::string& name) const {
    return dir_ / name;
  }
  std::filesystem::path dir_;
};

TEST_F(CalibrationIoTest, RoundTripsExactValues) {
  CalibrationProfile profile;
  profile["scaling/mse"] = {1714.9612345678901, Polarity::HighIsAttack, 0.999};
  profile["scaling/ssim"] = {0.6100000000000001, Polarity::LowIsAttack, 0.99};
  profile["steganalysis/csp"] = {2.0, Polarity::HighIsAttack, 0.0};
  save_calibrations(profile, path("p.calib"));
  const CalibrationProfile loaded = load_calibrations(path("p.calib"));
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.at("scaling/mse").threshold, 1714.9612345678901);
  EXPECT_EQ(loaded.at("scaling/mse").polarity, Polarity::HighIsAttack);
  EXPECT_DOUBLE_EQ(loaded.at("scaling/mse").train_accuracy, 0.999);
  EXPECT_DOUBLE_EQ(loaded.at("scaling/ssim").threshold, 0.6100000000000001);
  EXPECT_EQ(loaded.at("scaling/ssim").polarity, Polarity::LowIsAttack);
  EXPECT_DOUBLE_EQ(loaded.at("steganalysis/csp").threshold, 2.0);
}

TEST_F(CalibrationIoTest, EmptyProfileRoundTrips) {
  save_calibrations({}, path("empty.calib"));
  EXPECT_TRUE(load_calibrations(path("empty.calib")).empty());
}

TEST_F(CalibrationIoTest, MissingFileThrows) {
  EXPECT_THROW(load_calibrations(path("nope.calib")), decam::IoError);
}

TEST_F(CalibrationIoTest, WrongHeaderThrows) {
  std::ofstream out(path("bad.calib"));
  out << "something else\nscaling/mse high 1 0\n";
  out.close();
  EXPECT_THROW(load_calibrations(path("bad.calib")), decam::IoError);
}

TEST_F(CalibrationIoTest, MalformedLineThrows) {
  // A bad polarity, and anything but whitespace after the fourth field.
  for (const char* line : {"scaling/mse sideways 1 0",
                           "scaling/mse high 500 0.9 trailing junk",
                           "filtering/min/ssim low 0.45 0.9x"}) {
    std::ofstream out(path("bad2.calib"));
    out << "decam-calibration v1\n" << line << "\n";
    out.close();
    EXPECT_THROW(load_calibrations(path("bad2.calib")), decam::IoError)
        << line;
  }
}

TEST_F(CalibrationIoTest, DuplicateNameThrows) {
  std::ofstream out(path("dup.calib"));
  out << "decam-calibration v1\na high 1 0\na low 2 0\n";
  out.close();
  EXPECT_THROW(load_calibrations(path("dup.calib")), decam::IoError);
}

TEST_F(CalibrationIoTest, WhitespaceNameRejectedOnSave) {
  CalibrationProfile profile;
  profile["has space"] = {1.0, Polarity::HighIsAttack, 0.0};
  EXPECT_THROW(save_calibrations(profile, path("x.calib")),
               std::invalid_argument);
}

TEST_F(CalibrationIoTest, BlankLinesTolerated) {
  std::ofstream out(path("blank.calib"));
  out << "decam-calibration v1\n\na high 1 0.5\n\n";
  out.close();
  const CalibrationProfile loaded = load_calibrations(path("blank.calib"));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.at("a").train_accuracy, 0.5);
}

}  // namespace
}  // namespace decam::core
