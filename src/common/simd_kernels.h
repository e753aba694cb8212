// Internal: the per-ISA kernel tables linked into decam_simd. Whether the
// AVX2 table exists is decided at configure time (src/CMakeLists.txt adds
// its translation unit on x86-64 only) and communicated with the
// DECAM_SIMD_HAVE_AVX2 definition; the dispatcher (simd.cpp) only
// references tables that were actually compiled.
#pragma once

#include <algorithm>

#include "common/simd.h"

namespace decam::simd::detail {

namespace {

// The products row of pair_stats_hpass (common/simd.h), pw doubles per
// plane. Internal linkage on purpose: every per-ISA TU compiles its own
// copy with its own instruction set, where one inline definition shared
// across TUs could hand the AVX2 build of it to the scalar table.
inline void fill_pair_products(double* prod, const float* a, const float* b,
                               int n, int pw) {
  if (n == 0) return;
  constexpr int kRadius = kPairTaps / 2;
  double* pa = prod;
  double* pb = pa + pw;
  double* paa = pb + pw;
  double* pbb = paa + pw;
  double* pab = pbb + pw;
  const auto put = [&](int j, float fa, float fb) {
    const double da = static_cast<double>(fa);
    const double db = static_cast<double>(fb);
    pa[j] = da;
    pb[j] = db;
    paa[j] = da * da;
    pbb[j] = db * db;
    pab[j] = da * db;
  };
  for (int j = 0; j < kRadius; ++j) put(j, a[0], b[0]);
  for (int x = 0; x < n; ++x) put(kRadius + x, a[x], b[x]);
  for (int j = kRadius + n; j < pw; ++j) put(j, a[n - 1], b[n - 1]);
}

}  // namespace

/// Portable fallback, compiled with -ffp-contract=off so its arithmetic is
/// the exact elementwise sequence of the SimdOps contract on every host.
const SimdOps& scalar_ops();

#ifdef DECAM_SIMD_HAVE_AVX2
/// AVX2 table (x86-64 only; callers must verify cpu support first).
const SimdOps& avx2_ops();
#endif

}  // namespace decam::simd::detail
