// FFT execution plans — the precomputed, cacheable half of the spectral
// engine (DESIGN.md §10).
//
// A transform of length n always does the same twiddle arithmetic and the
// same data shuffle; only the samples change. Plans hoist everything
// sample-independent out of the hot loop: the radix factorisation and the
// per-stage twiddle tables of a Stockham autosort transform for every
// 7-smooth length (prime factors 2, 3, 5 and 7 only), and for every other
// length a Bluestein chirp sequence plus the pre-transformed kernel of its
// convolution, which runs at a 7-smooth length. A 2-D transform of an H x W
// image reuses two plans H + W times, and a dataset sweep reuses them
// thousands of times, so plans live in bounded thread-safe LRU caches, one
// per kind (obs/lru_cache.h, the template the resize kernel tables use
// too), and are handed out as shared_ptr — eviction can never invalidate a
// plan mid-transform.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cache_stats.h"

namespace decam {

using Complex = std::complex<double>;

/// Plan for one 7-smooth length + direction: a Stockham autosort
/// decomposition into radix-4 stages first, then at most one radix-2 stage,
/// then radix 3, 5 and 7. Each stage reads one buffer and writes the other
/// in natural order, so no bit-reversal pass exists.
struct FftPlan {
  /// One stage splits each of `stride` interleaved sub-transforms of length
  /// radix * m into `radix` sub-transforms of length m: input element
  /// q + stride * (p + j * m) feeds output q + stride * (radix * p + k),
  /// scaled by the twiddle W^(p * k) of the stage length radix * m.
  struct Stage {
    std::uint32_t radix = 0;
    std::uint32_t m = 0;
    std::uint32_t stride = 0;
    std::uint32_t twiddle_offset = 0;  // m - 1 rows of radix - 1 twiddles
  };
  std::size_t n = 0;
  bool inverse = false;
  std::vector<Stage> stages;
  /// Concatenated per-stage tables: for stage length L = radix * m, row
  /// p - 1 holds W^(p * k) for k in [1, radix), p in [1, m), with
  /// W = exp(sign * 2 * pi * i / L). Row p = 0 would be all ones.
  std::vector<Complex> twiddles;
};

/// Plan for one length with a prime factor above 7 + direction, via
/// Bluestein's chirp-z algorithm. The convolution runs at the smallest
/// 7-smooth length m >= 2n - 1, and its kernel is stored already
/// transformed (natural order) with the convolution's 1/m folded in, so a
/// call is one forward transform, a pointwise multiply and one unnormalised
/// inverse transform.
struct BluesteinPlan {
  std::size_t n = 0;
  bool inverse = false;
  std::size_t m = 0;                 // padded convolution length (7-smooth)
  std::vector<Complex> chirp;        // exp(sign*i*pi*k^2/n)
  std::vector<Complex> kernel;       // FFT of padded conj chirp, / m
  std::shared_ptr<const FftPlan> conv_forward;  // length-m plans, pinned so
  std::shared_ptr<const FftPlan> conv_inverse;  // cache eviction can't bite
};

/// Cached plan lookup (thread-safe; builds on miss outside the lock).
/// `get_fft_plan` requires a 7-smooth n.
std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n, bool inverse);
std::shared_ptr<const BluesteinPlan> get_bluestein_plan(std::size_t n,
                                                        bool inverse);

/// Separate stats for the two plan kinds, `fft_plan_cache` and
/// `bluestein_plan_cache` (a Bluestein miss also costs two smooth-length
/// lookups for its convolution plans). A Bluestein plan's resident bytes
/// leave out its convolution sub-plans, which count in the smooth-length
/// cache only.
using FftPlanCacheStats = CacheStats;
FftPlanCacheStats fft_plan_cache_stats();
FftPlanCacheStats bluestein_plan_cache_stats();
void clear_fft_plan_caches();

/// In-place execution, natural order in and out (+ 1/n normalisation when
/// the plan is inverse). Stages ping-pong between `data` and grow-only
/// per-thread scratch.
void fft_exec(const FftPlan& plan, Complex* data);

/// In-place Bluestein execution over `data[0..n)`, using per-thread scratch
/// sized once per m (no per-call allocation after warm-up).
void bluestein_exec(const BluesteinPlan& plan, Complex* data);

/// One planned 1-D transform: resolves the plan (7-smooth or Bluestein)
/// once at construction so row/column loops pay the cache lookup once, not
/// per line. Execution is in-place over `n` contiguous elements.
class PlannedFft {
 public:
  PlannedFft(std::size_t n, bool inverse);
  std::size_t size() const { return n_; }
  void operator()(Complex* data) const;

 private:
  std::size_t n_;
  std::shared_ptr<const FftPlan> smooth_;
  std::shared_ptr<const BluesteinPlan> bluestein_;
};

}  // namespace decam
