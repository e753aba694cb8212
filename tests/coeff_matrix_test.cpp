// Tests for the CoeffMatrix linear-operator view of the scalers.
#include "attack/coeff_matrix.h"

#include <gtest/gtest.h>

#include "data/rng.h"
#include "imaging/scale.h"

namespace decam::attack {
namespace {

TEST(CoeffMatrix, DimensionsMatchKernelTable) {
  const CoeffMatrix m = CoeffMatrix::for_scaling(10, 4, ScaleAlgo::Bilinear);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 10);
}

TEST(CoeffMatrix, RowsSumToOneForAllAlgorithms) {
  for (const ScaleAlgo algo :
       {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic,
        ScaleAlgo::Area, ScaleAlgo::Lanczos4}) {
    const CoeffMatrix m = CoeffMatrix::for_scaling(37, 11, algo);
    for (int r = 0; r < m.rows(); ++r) {
      double sum = 0.0;
      for (const Tap& tap : m.row_taps(r)) sum += tap.weight;
      EXPECT_NEAR(sum, 1.0, 1e-5) << to_string(algo) << " row " << r;
    }
  }
}

TEST(CoeffMatrix, DenseAccessMatchesTaps) {
  const CoeffMatrix m = CoeffMatrix::for_scaling(8, 4, ScaleAlgo::Bilinear);
  for (int r = 0; r < m.rows(); ++r) {
    double taps_sum = 0.0;
    for (int c = 0; c < m.cols(); ++c) taps_sum += m.at(r, c);
    EXPECT_NEAR(taps_sum, 1.0, 1e-6);
  }
  // Half-scale bilinear: row 0 blends columns 0 and 1 at 1/2.
  EXPECT_NEAR(m.at(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(m.at(0, 1), 0.5, 1e-6);
  EXPECT_NEAR(m.at(0, 2), 0.0, 1e-12);
  EXPECT_THROW(m.at(-1, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, 99), std::invalid_argument);
}

TEST(CoeffMatrix, MultiplyMatchesApplyKernel) {
  data::Rng rng(1);
  const CoeffMatrix m = CoeffMatrix::for_scaling(23, 9, ScaleAlgo::Bicubic);
  std::vector<double> x(23);
  std::vector<float> xf(23);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_range(0.0, 255.0);
    xf[i] = static_cast<float>(x[i]);
  }
  const std::vector<double> y = m.multiply(x);
  std::vector<float> yf(9);
  apply_kernel(m.table(), xf.data(), 1, yf.data(), 1);
  for (int r = 0; r < 9; ++r) {
    EXPECT_NEAR(y[static_cast<std::size_t>(r)], yf[r], 1e-3);
  }
  EXPECT_THROW(m.multiply(std::vector<double>(5, 0.0)),
               std::invalid_argument);
}

TEST(CoeffMatrix, OperatorAgreesWithResizeRowwise) {
  // Multiplying each image row by R^T must equal the horizontal pass of
  // resize(): the attack's model and the deployed scaler cannot drift.
  data::Rng rng(2);
  Image img(20, 1, 1);
  for (float& v : img.plane(0)) {
    v = static_cast<float>(rng.next_range(0.0, 255.0));
  }
  const Image resized = resize(img, 7, 1, ScaleAlgo::Lanczos4);
  const CoeffMatrix R = CoeffMatrix::for_scaling(20, 7, ScaleAlgo::Lanczos4);
  std::vector<double> x(20);
  for (int i = 0; i < 20; ++i) x[static_cast<std::size_t>(i)] = img.at(i, 0, 0);
  const auto y = R.multiply(x);
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], resized.at(i, 0, 0), 1e-3);
  }
}

}  // namespace
}  // namespace decam::attack
