// ASCII table rendering for the paper benches: every table in the paper is
// regenerated as a box-drawn text table with the same rows and columns.
#pragma once

#include <string>
#include <vector>

namespace decam::report {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders with aligned columns and +-| borders.
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "99.9%"-style formatting of a ratio in [0, 1].
std::string format_percent(double ratio, int decimals = 1);

/// Fixed-point formatting.
std::string format_double(double value, int decimals = 2);

}  // namespace decam::report
