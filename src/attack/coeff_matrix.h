// The scaler as an explicit sparse linear operator.
//
// Image scaling with any of our kernels is linear:  D = L * X * R^T, where
// L is the (out_h x in_h) vertical coefficient matrix and R the
// (out_w x in_w) horizontal one. The image-scaling attack (Xiao et al.)
// works directly on these matrices; this header wraps the KernelTable of
// imaging/kernels.h into a row-sparse matrix with the handful of dense
// operations the attack and its tests need.
#pragma once

#include <span>
#include <vector>

#include "imaging/kernels.h"

namespace decam::attack {

/// Row-sparse matrix: rows() entries, each a short list of (col, weight)
/// taps. Equivalently, the tap table of a 1-D resample.
class CoeffMatrix {
 public:
  CoeffMatrix() = default;
  explicit CoeffMatrix(KernelTable table);

  /// Coefficient matrix of a 1-D resample from `in_size` to `out_size`.
  static CoeffMatrix for_scaling(int in_size, int out_size, ScaleAlgo algo);

  int rows() const { return table_.out_size; }
  int cols() const { return table_.in_size; }

  std::span<const Tap> row_taps(int r) const { return table_.row(r); }

  /// Dense element access (0 where no tap exists). O(taps) per call; for
  /// tests and small analyses only.
  double at(int r, int c) const;

  /// y = M x  (x.size() == cols()).
  std::vector<double> multiply(const std::vector<double>& x) const;

  const KernelTable& table() const { return table_; }

 private:
  KernelTable table_;
};

}  // namespace decam::attack
