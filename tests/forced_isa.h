// Running a test on one SIMD table (common/simd.h): a scope that forces a
// table and restores the one active before, and the tables this host can
// run.
#pragma once

#include <vector>

#include "common/simd.h"

namespace decam::testref {

/// Forces `isa` for the scope; an ISA this host cannot run leaves the
/// scalar table active (set_active_isa's rule), so check `active()` first.
class ForcedIsa {
 public:
  explicit ForcedIsa(simd::Isa isa)
      : wanted_(isa), previous_(simd::set_active_isa(isa)) {}
  ~ForcedIsa() { simd::set_active_isa(previous_); }
  ForcedIsa(const ForcedIsa&) = delete;
  ForcedIsa& operator=(const ForcedIsa&) = delete;

  /// Whether the forced table is the active one.
  bool active() const { return simd::active_isa() == wanted_; }

 private:
  simd::Isa wanted_;
  simd::Isa previous_;
};

/// Every table this build and host can run, scalar first.
inline std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa :
       {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512}) {
    if (simd::runnable(isa)) isas.push_back(isa);
  }
  return isas;
}

}  // namespace decam::testref
