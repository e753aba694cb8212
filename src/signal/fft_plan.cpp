#include "signal/fft_plan.h"

#include <cmath>
#include <numbers>
#include <utility>

#include "common/error.h"
#include "common/fft_kernels.h"
#include "obs/lru_cache.h"

namespace decam {
namespace {

// Divides out 2, 3, 5 and 7: true when nothing else is left.
bool is_smooth(std::size_t n) {
  if (n == 0) return false;
  for (const std::size_t p : {2, 3, 5, 7}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

// ----------------------------------------------------------- plan build --

FftPlan make_fft_plan(std::size_t n, bool inverse) {
  DECAM_REQUIRE(is_smooth(n), "smooth FFT plan for a length with a prime "
                              "factor above 7");
  FftPlan plan;
  plan.n = n;
  plan.inverse = inverse;

  std::vector<std::uint32_t> radices;
  std::size_t rest = n;
  for (; rest % 4 == 0; rest /= 4) radices.push_back(4);
  if (rest % 2 == 0) {
    radices.push_back(2);
    rest /= 2;
  }
  for (const std::uint32_t r : {3u, 5u, 7u}) {
    for (; rest % r == 0; rest /= r) radices.push_back(r);
  }

  const double sign = inverse ? 1.0 : -1.0;
  std::size_t length = n;  // sub-transform length entering the stage
  std::size_t stride = 1;  // number of interleaved sub-transforms
  for (const std::uint32_t r : radices) {
    const std::size_t m = length / r;
    plan.stages.push_back({r, static_cast<std::uint32_t>(m),
                           static_cast<std::uint32_t>(stride),
                           static_cast<std::uint32_t>(plan.twiddles.size())});
    // Row p - 1 holds W^(p*k) for p in [1, m); the p = 0 butterflies skip
    // the multiply.
    const double base =
        sign * 2.0 * std::numbers::pi / static_cast<double>(length);
    for (std::size_t p = 1; p < m; ++p) {
      for (std::size_t k = 1; k < r; ++k) {
        const double a = base * static_cast<double>((p * k) % length);
        plan.twiddles.emplace_back(std::cos(a), std::sin(a));
      }
    }
    length = m;
    stride *= r;
  }
  return plan;
}

// ------------------------------------------------------------- 1-D runs --

// `plan` on one line of interleaved complexes, in place: split into
// per-thread arrays, the butterfly template on one double, interleave back.
// Only fft() and the Bluestein kernel build run it; a spectrum runs four
// lines at once through SimdOps::fft_lanes.
void transform_line(const simd::FftLanePlan& plan, Complex* data) {
  thread_local std::vector<double> split;
  const std::size_t n = plan.n;
  const std::size_t need = 2 * n + simd::fft_work_doubles(plan);
  if (split.size() < need) split.resize(need);
  double* const re = split.data();
  double* const im = re + n;
  for (std::size_t k = 0; k < n; ++k) {
    re[k] = data[k].real();
    im[k] = data[k].imag();
  }
  simd::detail::fft_exec<double>(plan, re, im, im + n);
  for (std::size_t k = 0; k < n; ++k) data[k] = Complex(re[k], im[k]);
}

// ----------------------------------------------------------------- cache --

// Heap held by a cached plan, for the resident-bytes gauges. A Bluestein
// plan's convolution sub-plans are shared_ptrs into the smooth-length cache
// and are counted there, not here — summing both gauges never double
// counts.
std::uint64_t plan_bytes(const FftPlan& plan) {
  return plan.twiddles.capacity() * sizeof(Complex) +
         plan.stages.capacity() * sizeof(FftPlan::Stage);
}

std::uint64_t plan_bytes(const BluesteinPlan& plan) {
  return plan.chirp.capacity() * sizeof(Complex) +
         plan.kernel.capacity() * sizeof(Complex);
}

// One cache per plan kind, keyed by (n, inverse).
using SmoothCache = obs::LruCache<std::pair<std::size_t, bool>, FftPlan>;
using BluesteinCache =
    obs::LruCache<std::pair<std::size_t, bool>, BluesteinPlan>;

SmoothCache& fft_plan_cache() {
  static SmoothCache cache("fft_plan_cache", plan_bytes);
  return cache;
}

BluesteinCache& bluestein_plan_cache() {
  static BluesteinCache cache("bluestein_plan_cache", plan_bytes);
  return cache;
}

BluesteinPlan make_bluestein_plan(std::size_t n, bool inverse) {
  DECAM_REQUIRE(n >= 2, "bluestein plan needs n >= 2");
  BluesteinPlan plan;
  plan.n = n;
  plan.inverse = inverse;
  const double sign = inverse ? 1.0 : -1.0;
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids catastrophic precision loss for large k.
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
    plan.chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.m = 2 * n - 1;
  while (!is_smooth(plan.m)) ++plan.m;
  plan.conv_forward = get_fft_plan(plan.m, false);
  plan.conv_inverse = get_fft_plan(plan.m, true);
  plan.kernel.assign(plan.m, Complex(0, 0));
  plan.kernel[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan.kernel[k] = plan.kernel[plan.m - k] = std::conj(plan.chirp[k]);
  }
  // Stored transformed with the convolution's 1/m folded in, so the
  // per-call inverse transform needs no normalisation pass.
  simd::FftLanePlan forward;
  forward.n = plan.m;
  forward.smooth = plan.conv_forward->view();
  transform_line(forward, plan.kernel.data());
  const double inv_m = 1.0 / static_cast<double>(plan.m);
  for (Complex& v : plan.kernel) v *= inv_m;
  return plan;
}

}  // namespace

std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n, bool inverse) {
  return fft_plan_cache().get({n, inverse},
                              [&] { return make_fft_plan(n, inverse); });
}

std::shared_ptr<const BluesteinPlan> get_bluestein_plan(std::size_t n,
                                                        bool inverse) {
  return bluestein_plan_cache().get(
      {n, inverse}, [&] { return make_bluestein_plan(n, inverse); });
}

FftPlanCacheStats fft_plan_cache_stats() { return fft_plan_cache().stats(); }

FftPlanCacheStats bluestein_plan_cache_stats() {
  return bluestein_plan_cache().stats();
}

void clear_fft_plan_caches() {
  fft_plan_cache().clear();
  bluestein_plan_cache().clear();
}

simd::FftStages FftPlan::view() const {
  return {n, inverse, stages.data(), stages.size(),
          reinterpret_cast<const double*>(twiddles.data())};
}

PlannedFft::PlannedFft(std::size_t n, bool inverse) : n_(n) {
  DECAM_REQUIRE(n >= 1, "fft of empty signal");
  lanes_.n = n;
  lanes_.inverse = inverse;
  if (n == 1) return;
  if (is_smooth(n)) {
    smooth_ = get_fft_plan(n, inverse);
    lanes_.smooth = smooth_->view();
  } else {
    bluestein_ = get_bluestein_plan(n, inverse);
    // std::complex<double> is layout-compatible with double[2].
    lanes_.smooth = bluestein_->conv_forward->view();
    lanes_.chirp = reinterpret_cast<const double*>(bluestein_->chirp.data());
    lanes_.kernel = reinterpret_cast<const double*>(bluestein_->kernel.data());
    lanes_.conv_inverse = bluestein_->conv_inverse->view();
  }
}

void PlannedFft::operator()(Complex* data) const {
  transform_line(lanes_, data);
}

}  // namespace decam
