// 1-D resampling kernels and precomputed tap tables.
//
// Every scaler in this library is separable: a 2-D resize is a horizontal
// 1-D resample followed by a vertical one. A 1-D resample from `in` samples
// to `out` samples is fully described by a table of weighted taps per output
// index — exactly the sparse linear operator the image-scaling attack
// exploits (src/attack/coeff_matrix.h re-exports these tables as matrices).
//
// Coordinate convention: we follow OpenCV/TensorFlow half-pixel mapping,
//     src = (dst + 0.5) * (in / out) - 0.5
// and — crucially for reproducing the attack — we do NOT widen the kernel
// support when downscaling (no anti-aliasing) for Nearest/Bilinear/Bicubic/
// Lanczos4, matching cv::resize. Only ScaleAlgo::Area averages the full
// source footprint; it is the "robust" scaler of Quiring et al.
//
// Storage: tables are flattened into one contiguous Tap array plus a row
// offset index (CSR layout). The resize inner loops walk `taps` linearly, so
// a whole table is a handful of cache lines instead of one heap allocation
// per output sample. Border-clamped duplicate taps are coalesced at build
// time (one entry per source index, weights summed), which both keeps the
// table a well-formed sparse operator and makes border rows cheaper to
// apply; per-row weights always sum to 1 (asserted at build time).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/cache_stats.h"
#include "common/error.h"
#include "common/simd.h"

namespace decam {

/// Interpolation algorithms mirroring cv::resize's INTER_* family.
enum class ScaleAlgo {
  Nearest,   // INTER_NEAREST: src = floor(dst * in/out)
  Bilinear,  // INTER_LINEAR, 2 taps
  Bicubic,   // INTER_CUBIC, Keys a = -0.75, 4 taps
  Area,      // INTER_AREA: box average of the source footprint
  Lanczos4,  // INTER_LANCZOS4, 8 taps
};

const char* to_string(ScaleAlgo algo);

/// One weighted source sample contributing to an output sample: its
/// clamped source index in [0, in_size) and its kernel weight (the weights
/// of one output sample sum to 1). simd::KernelTap (common/simd.h), so the
/// SIMD tables' resize_rows4 reads a table's taps as they are.
using Tap = simd::KernelTap;

/// Tap lists for every output index of a 1-D resample, flattened: the taps
/// of output sample o live at taps[offsets[o] .. offsets[o+1]).
struct KernelTable {
  int in_size = 0;
  int out_size = 0;
  std::vector<int> offsets;  // out_size + 1 row boundaries into `taps`
  std::vector<Tap> taps;     // all rows, back to back, index-sorted per row

  /// Taps of output sample `o`.
  std::span<const Tap> row(int o) const {
    DECAM_ASSERT(o >= 0 && o < out_size);
    return {taps.data() + offsets[static_cast<std::size_t>(o)],
            taps.data() + offsets[static_cast<std::size_t>(o) + 1]};
  }
  int row_taps(int o) const {
    return offsets[static_cast<std::size_t>(o) + 1] -
           offsets[static_cast<std::size_t>(o)];
  }

  /// Assembles a table from per-row tap lists (tests, hand-built operators).
  static KernelTable from_rows(int in_size,
                               std::span<const std::vector<Tap>> rows);
};

/// Builds the tap table for resampling a length-`in_size` signal to
/// `out_size` samples with `algo`. Throws std::invalid_argument for
/// non-positive sizes. Unconditionally builds: see get_kernel_table for the
/// cached variant the resize hot path uses.
KernelTable make_kernel_table(int in_size, int out_size, ScaleAlgo algo);

/// Shared, immutable table from the process-wide `kernel_cache`, keyed by
/// (in_size, out_size, algo): a 64-entry LRU (obs/lru_cache.h, the
/// template both FFT plan caches use too). Dataset runs resize every image
/// with the same handful of geometries, so table construction amortises to
/// a mutex hop + map lookup. Entries are shared_ptr so an eviction can never
/// invalidate a table a resize in flight still holds.
std::shared_ptr<const KernelTable> get_kernel_table(int in_size, int out_size,
                                                    ScaleAlgo algo);

/// Kernel-table cache introspection (tests / stats reporting).
using KernelCacheStats = CacheStats;
KernelCacheStats kernel_cache_stats();
/// Drops every cached table (tests; in-flight shared_ptrs stay valid).
void clear_kernel_cache();

/// Kernel profile functions (exposed for tests / analysis).
/// Keys bicubic with a = -0.75 evaluated at distance |t| <= 2.
double cubic_weight(double t);
/// Lanczos window with a = 4 evaluated at |t| <= 4.
double lanczos4_weight(double t);

/// Applies a tap table to one stride-`stride` signal: out[o] = sum w*in[tap].
/// `in` must hold in_size elements at the given stride, `out` out_size.
void apply_kernel(const KernelTable& table, const float* in, int in_stride,
                  float* out, int out_stride);

}  // namespace decam
