// AVX-512 variant of the SIMD kernel table: the AVX2 table's entries but
// for the pair-stats walk, which runs on blocks of eight pixels, one 8-lane
// vector per stat. Only compiled on x86-64 (the dispatcher additionally
// checks cpuid for AVX-512F and AVX2 before selecting it).
//
// Bit-parity with the scalar table is part of the contract (common/simd.h):
// the walk is the AVX2 table's template (common/simd_kernels.h) on eight
// lanes, every lane the scalar sequence of separate multiplies and adds,
// and the TU is compiled with -ffp-contract=off so the compiler cannot
// fuse them. Eight lanes pay where a 512-bit multiply or add issues as
// often as a 256-bit one: the walk is bound by FP throughput, so each op
// then does twice the work.
#include "common/simd_kernels.h"

#ifdef DECAM_SIMD_HAVE_X86

namespace decam::simd::detail {
namespace {

// __m512d's eight doubles as a GCC vector (common/simd_kernels.h's walk
// template is written over such types): +, -, * and / compile to the
// 512-bit vaddpd, vsubpd, vmulpd and vdivpd.
typedef double Pd8 __attribute__((vector_size(64)));

double pair_stats_hpass(double* ring_row, const float* a, const float* b,
                        const double* win, int n, double sq_sum) {
  return pair_stats_hpass_lanes<Pd8>(ring_row, a, b, win, n, sq_sum);
}

double pair_stats_vpass(const double* const* rows, const double* win,
                        double c1, double c2, int n, double total) {
  return pair_stats_vpass_lanes<Pd8>(rows, win, c1, c2, n, total);
}

}  // namespace

const SimdOps& avx512_ops() {
  static const SimdOps ops = [] {
    SimdOps table = avx2_ops();
    table.name = "avx512";
    table.pair_lanes = 8;
    table.pair_stats_hpass = pair_stats_hpass;
    table.pair_stats_vpass = pair_stats_vpass;
    return table;
  }();
  return ops;
}

}  // namespace decam::simd::detail

#endif  // DECAM_SIMD_HAVE_X86
