#include "core/calibration_io.h"

#include <fstream>
#include <sstream>

#include "common/error.h"

namespace decam::core {

void save_calibrations(const CalibrationProfile& profile,
                       const std::filesystem::path& file) {
  std::ofstream out(file);
  if (!out) throw IoError(file.string() + ": cannot open for writing");
  out.precision(17);
  out << "decam-calibration v1\n";
  for (const auto& [name, calibration] : profile) {
    DECAM_REQUIRE(name.find_first_of(" \t\n") == std::string::npos,
                  "calibration names must not contain whitespace");
    out << name << ' '
        << (calibration.polarity == Polarity::HighIsAttack ? "high" : "low")
        << ' ' << calibration.threshold << ' '
        << calibration.train_accuracy << '\n';
  }
  if (!out) throw IoError(file.string() + ": short write");
}

CalibrationProfile load_calibrations(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) throw IoError(file.string() + ": cannot open for reading");
  std::string header;
  if (!std::getline(in, header) || header != "decam-calibration v1") {
    throw IoError(file.string() + ": not a decam calibration profile");
  }
  CalibrationProfile profile;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string name, polarity, rest;
    Calibration calibration;
    if (!(fields >> name >> polarity >> calibration.threshold >>
          calibration.train_accuracy) ||
        (polarity != "high" && polarity != "low") || (fields >> rest)) {
      throw IoError(file.string() + ": malformed profile line: " + line);
    }
    calibration.polarity =
        polarity == "high" ? Polarity::HighIsAttack : Polarity::LowIsAttack;
    if (!profile.emplace(name, calibration).second) {
      throw IoError(file.string() + ": duplicate entry: " + name);
    }
  }
  return profile;
}

}  // namespace decam::core
