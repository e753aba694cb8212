#include "metrics/mse.h"

#include <cmath>
#include <limits>

namespace decam {
namespace {

// sum + d_0 * d_0 + ... + d_{n-1} * d_{n-1}, d_i = (double)a[i] -
// (double)b[i], added one sample at a time in index order: the MSE walk
// over one row.
double fold_squared_diff(const float* a, const float* b, int n, double sum) {
  for (int i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

}  // namespace

double mse(const Image& a, RowSource& b) {
  DECAM_REQUIRE(b.same_shape(a), "mse: shape mismatch");
  DECAM_REQUIRE(!a.empty(), "mse of empty images");
  double sum = 0.0;
  for (int c = 0; c < a.channels(); ++c) {
    for (int y = 0; y < a.height(); ++y) {
      sum = fold_squared_diff(a.row(y, c).data(), b.row(y, c), a.width(), sum);
    }
  }
  return sum / static_cast<double>(a.size());
}

double mse(const Image& a, const Image& b) {
  PlaneRows rows(b);
  return mse(a, rows);
}

double psnr(const Image& a, const Image& b) {
  const double err = mse(a, b);
  if (err == 0.0) return std::numeric_limits<double>::infinity();
  constexpr double peak = 255.0;
  return 10.0 * std::log10(peak * peak / err);
}

}  // namespace decam
