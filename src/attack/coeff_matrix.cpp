#include "attack/coeff_matrix.h"

namespace decam::attack {

CoeffMatrix::CoeffMatrix(KernelTable table) : table_(std::move(table)) {}

CoeffMatrix CoeffMatrix::for_scaling(int in_size, int out_size,
                                     ScaleAlgo algo) {
  return CoeffMatrix(make_kernel_table(in_size, out_size, algo));
}

double CoeffMatrix::at(int r, int c) const {
  DECAM_REQUIRE(r >= 0 && r < rows() && c >= 0 && c < cols(),
                "CoeffMatrix::at out of range");
  double value = 0.0;
  for (const Tap& tap : row_taps(r)) {
    if (tap.index == c) value += tap.weight;
  }
  return value;
}

std::vector<double> CoeffMatrix::multiply(const std::vector<double>& x) const {
  DECAM_REQUIRE(x.size() == static_cast<std::size_t>(cols()),
                "CoeffMatrix::multiply size mismatch");
  std::vector<double> y(static_cast<std::size_t>(rows()), 0.0);
  for (int r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (const Tap& tap : row_taps(r)) {
      acc += static_cast<double>(tap.weight) *
             x[static_cast<std::size_t>(tap.index)];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

}  // namespace decam::attack
