// FFT execution plans — the precomputed, cacheable half of the spectral
// engine (DESIGN.md §10). The butterflies that execute them are one
// template over the lane type (common/fft_kernels.h): PlannedFft runs it on
// one line, and the SimdOps entry fft_lanes on four lines per vector.
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
#include "common/simd.h"

namespace decam {

using Complex = std::complex<double>;

/// Plan for one 7-smooth length + direction: a Stockham autosort
/// decomposition into radix-4 stages first, then at most one radix-2 stage,
/// then radix 3, 5 and 7. Each stage reads one buffer and writes the other
/// in natural order, so no bit-reversal pass exists.
struct FftPlan {
  /// simd::FftStage (common/simd.h) documents the indexing.
  using Stage = simd::FftStage;
  std::size_t n = 0;
  bool inverse = false;
  std::vector<Stage> stages;
  /// Concatenated per-stage tables: for stage length L = radix * m, row
  /// p - 1 holds W^(p * k) for k in [1, radix), p in [1, m), with
  /// W = exp(sign * 2 * pi * i / L). Row p = 0 would be all ones.
  std::vector<Complex> twiddles;

  /// The stages as the butterfly template reads them; valid while the plan
  /// lives.
  simd::FftStages view() const;
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

/// One planned 1-D transform: resolves the plan (7-smooth or Bluestein)
/// once at construction, so a row or column loop pays one cache lookup, not
/// one per line (n = 1 needs no plan and looks nothing up). It runs in two
/// forms, which give the same bits line for line: operator() on one line,
/// and lanes() handed to simd::ops().fft_lanes for four lines at once.
class PlannedFft {
 public:
  PlannedFft(std::size_t n, bool inverse);
  std::size_t size() const { return n_; }
  /// In place over `n` contiguous elements, natural order in and out
  /// (+ 1/n normalisation when inverse).
  void operator()(Complex* data) const;
  /// The plan as plain arrays; valid while this object lives.
  const simd::FftLanePlan& lanes() const { return lanes_; }

 private:
  std::size_t n_;
  std::shared_ptr<const FftPlan> smooth_;
  std::shared_ptr<const BluesteinPlan> bluestein_;
  simd::FftLanePlan lanes_;
};

}  // namespace decam
