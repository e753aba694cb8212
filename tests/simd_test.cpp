// The runtime SIMD dispatch shim (common/simd.h): ISA naming and
// selection, table swapping, the simd/dispatch gauge, and — on hosts that
// carry a native table — bit-exact parity of every SimdOps entry against
// the normative scalar loops, including the vector-width tails.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/simd.h"
#include "data/rng.h"
#include "imaging/filter.h"
#include "obs/metrics.h"

namespace decam {
namespace {

using simd::Isa;
using simd::SimdOps;

// Restores whatever table was active on entry, so these tests cannot leak a
// forced ISA into the rest of the binary.
struct IsaGuard {
  Isa previous = simd::active_isa();
  ~IsaGuard() { simd::set_active_isa(previous); }
};

TEST(SimdDispatch, IsaNames) {
  EXPECT_STREQ(simd::to_string(Isa::Scalar), "scalar");
  EXPECT_STREQ(simd::to_string(Isa::Avx2), "avx2");
  EXPECT_STREQ(simd::to_string(Isa::Neon), "neon");
}

TEST(SimdDispatch, ActiveTableNameMatchesIsa) {
  EXPECT_STREQ(simd::ops().name, simd::to_string(simd::active_isa()));
}

TEST(SimdDispatch, SetActiveIsaRoundTrips) {
  IsaGuard guard;
  const Isa before = simd::set_active_isa(Isa::Scalar);
  EXPECT_EQ(before, guard.previous);
  EXPECT_EQ(simd::active_isa(), Isa::Scalar);
  EXPECT_STREQ(simd::ops().name, "scalar");
  EXPECT_EQ(simd::set_active_isa(before), Isa::Scalar);
}

TEST(SimdDispatch, UnavailableIsaFallsBackToScalar) {
  IsaGuard guard;
  for (const Isa isa : {Isa::Avx2, Isa::Neon}) {
    simd::set_active_isa(isa);
    const Isa got = simd::active_isa();
    EXPECT_TRUE(got == isa || got == Isa::Scalar)
        << "requested " << simd::to_string(isa) << ", got "
        << simd::to_string(got);
  }
}

TEST(SimdDispatch, GaugeTracksActiveIsa) {
  IsaGuard guard;
  obs::Gauge& gauge = obs::MetricsRegistry::instance().gauge("simd/dispatch");
  simd::set_active_isa(Isa::Scalar);
  EXPECT_EQ(gauge.value(), 0.0);
  simd::set_active_isa(guard.previous);
  EXPECT_EQ(gauge.value(),
            static_cast<double>(static_cast<int>(simd::active_isa())));
}

// --- native-vs-scalar parity of each table entry -------------------------

// Sizes straddling the AVX2 (8 floats / 4 doubles / 16 uint16) and NEON
// (4 / 2 / 8) vector widths, plus scalar-tail-only and empty cases.
const int kSizes[] = {0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 100};

std::vector<float> random_floats(int n, std::uint64_t seed, double lo = -2.0,
                                 double hi = 260.0) {
  data::Rng rng(seed);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (float& v : out) v = static_cast<float>(rng.next_range(lo, hi));
  return out;
}

std::vector<double> random_doubles(int n, std::uint64_t seed) {
  data::Rng rng(seed);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (double& v : out) v = rng.next_range(-1000.0, 1000.0);
  return out;
}

std::vector<std::uint16_t> random_u16(int n, std::uint64_t seed) {
  data::Rng rng(seed);
  std::vector<std::uint16_t> out(static_cast<std::size_t>(n));
  for (std::uint16_t& v : out) {
    v = static_cast<std::uint16_t>(rng.next_range(0.0, 65536.0));
  }
  return out;
}

class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::native_available()) {
      GTEST_SKIP() << "no native SIMD table on this host";
    }
    // The tables are process-lifetime statics, so holding pointers to both
    // (regardless of which is active) is fine. The startup table may itself
    // be scalar (DECAM_SIMD=scalar); the native one is resolved explicitly.
    IsaGuard guard;
    simd::set_active_isa(Isa::Scalar);
    scalar_ = &simd::ops();
    for (const Isa isa : {Isa::Avx2, Isa::Neon}) {
      simd::set_active_isa(isa);
      if (simd::active_isa() == isa) {
        native_ = &simd::ops();
        native_isa_ = isa;
        break;
      }
    }
    ASSERT_NE(native_, nullptr);
    ASSERT_STRNE(native_->name, "scalar");
  }

  const SimdOps* scalar_ = nullptr;
  const SimdOps* native_ = nullptr;
  Isa native_isa_ = Isa::Scalar;
};

template <typename T>
void expect_bits_equal(const std::vector<T>& got, const std::vector<T>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty()) return;  // data() may be null, and memcmp must not see it
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << what;
}

TEST_F(SimdParity, HistOps) {
  for (const int n : kSizes) {
    const auto add = random_u16(n, 10u + n);
    auto a = random_u16(n, 30u + n);
    auto b = a;
    scalar_->hist_add_u16(a.data(), add.data(), n);
    native_->hist_add_u16(b.data(), add.data(), n);
    expect_bits_equal(a, b, "hist_add_u16 n=" + std::to_string(n));
  }
}

TEST_F(SimdParity, WeightedRowOps) {
  const double w = 0.62345817;
  for (const int n : kSizes) {
    const auto in = random_floats(n, 40u + n);
    std::vector<float> fa(static_cast<std::size_t>(n)),
        fb(static_cast<std::size_t>(n));
    scalar_->weighted_assign_f32(fa.data(), in.data(), w, n);
    native_->weighted_assign_f32(fb.data(), in.data(), w, n);
    expect_bits_equal(fa, fb, "weighted_assign_f32 n=" + std::to_string(n));

    std::vector<double> da(static_cast<std::size_t>(n)),
        db(static_cast<std::size_t>(n));
    scalar_->weighted_init_f64(da.data(), in.data(), w, n);
    native_->weighted_init_f64(db.data(), in.data(), w, n);
    expect_bits_equal(da, db, "weighted_init_f64 n=" + std::to_string(n));

    scalar_->weighted_add_f64(da.data(), in.data(), 1.7 * w, n);
    native_->weighted_add_f64(db.data(), in.data(), 1.7 * w, n);
    expect_bits_equal(da, db, "weighted_add_f64 n=" + std::to_string(n));

    scalar_->weighted_finish_f32(fa.data(), da.data(), in.data(), w, n);
    native_->weighted_finish_f32(fb.data(), db.data(), in.data(), w, n);
    expect_bits_equal(fa, fb, "weighted_finish_f32 n=" + std::to_string(n));
  }
}

TEST_F(SimdParity, ConvolveAndReduceOps) {
  for (const int n : kSizes) {
    const auto in = random_floats(n, 50u + n);
    auto da = random_doubles(n, 70u + n);
    auto db = da;
    scalar_->tap_accumulate_f32(da.data(), in.data(), 0.125f, n);
    native_->tap_accumulate_f32(db.data(), in.data(), 0.125f, n);
    expect_bits_equal(da, db, "tap_accumulate_f32 n=" + std::to_string(n));

    std::vector<float> fa(static_cast<std::size_t>(n)),
        fb(static_cast<std::size_t>(n));
    scalar_->narrow_f64_f32(fa.data(), da.data(), n);
    native_->narrow_f64_f32(fb.data(), db.data(), n);
    expect_bits_equal(fa, fb, "narrow_f64_f32 n=" + std::to_string(n));
  }
}

// The pair-stats walk: kSizes plus every width below the 11-tap window
// that kSizes skips, so every n mod 4 meets every edge-clamped tap count.
std::vector<int> pair_sizes() {
  std::vector<int> sizes(std::begin(kSizes), std::end(kSizes));
  sizes.insert(sizes.end(), {2, 5, 6, 10, 11, 13});
  return sizes;
}

const double kPairWin[simd::kPairTaps] = {0.01, 0.03, 0.07, 0.12, 0.16, 0.22,
                                          0.16, 0.12, 0.07, 0.03, 0.01};

std::size_t pair_ring_doubles(int n) {
  return static_cast<std::size_t>(simd::pair_blocks(n) * simd::kPairBlock);
}

std::size_t pair_prod_doubles(int n) {
  return static_cast<std::size_t>(simd::kPairStats *
                                  simd::pair_products_width(n));
}

TEST_F(SimdParity, PairStatsHpass) {
  for (const int n : pair_sizes()) {
    const auto a = random_floats(n, 90u + n, 0.0, 255.0);
    const auto b = random_floats(n, 91u + n, 0.0, 255.0);
    // Exactly sized, so a sanitizer build sees any load past the padding.
    std::vector<double> ring_s(pair_ring_doubles(n)), ring_n(ring_s.size());
    std::vector<double> prod_s(pair_prod_doubles(n)), prod_n(prod_s.size());
    const double sq_s = scalar_->pair_stats_hpass(
        ring_s.data(), prod_s.data(), a.data(), b.data(), kPairWin, n, 0.375);
    const double sq_n = native_->pair_stats_hpass(
        ring_n.data(), prod_n.data(), a.data(), b.data(), kPairWin, n, 0.375);
    expect_bits_equal(prod_s, prod_n, "hpass products n=" + std::to_string(n));
    expect_bits_equal(ring_s, ring_n, "hpass ring n=" + std::to_string(n));
    EXPECT_EQ(0, std::memcmp(&sq_s, &sq_n, sizeof(double)))
        << "hpass sq_sum n=" << n << ": " << sq_s << " vs " << sq_n;
  }
}

TEST_F(SimdParity, PairStatsVpass) {
  for (const int n : pair_sizes()) {
    // Eleven distinct ring rows as the walk makes them: scalar hpass over
    // random source rows.
    std::vector<std::vector<double>> ring(simd::kPairTaps);
    std::vector<const double*> rows;
    std::vector<double> prod(pair_prod_doubles(n));
    for (int t = 0; t < simd::kPairTaps; ++t) {
      const auto a = random_floats(n, 100u + 16u * n + t, 0.0, 255.0);
      const auto b = random_floats(n, 400u + 16u * n + t, 0.0, 255.0);
      ring[t].resize(pair_ring_doubles(n));
      scalar_->pair_stats_hpass(ring[t].data(), prod.data(), a.data(),
                                b.data(), kPairWin, n, 0.0);
      rows.push_back(ring[t].data());
    }
    const double c1 = 6.5025;
    const double c2 = 58.5225;
    const double total_s =
        scalar_->pair_stats_vpass(rows.data(), kPairWin, c1, c2, n, 0.375);
    const double total_n =
        native_->pair_stats_vpass(rows.data(), kPairWin, c1, c2, n, 0.375);
    EXPECT_EQ(0, std::memcmp(&total_s, &total_n, sizeof(double)))
        << "vpass n=" << n << ": " << total_s << " vs " << total_n;
  }
}

TEST_F(SimdParity, MedianIdenticalUnderForcedIsa) {
  data::Rng rng(314);
  Image img(33, 21, 2);
  for (int c = 0; c < 2; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(static_cast<int>(rng.next_range(0.0, 256.0)));
    }
  }
  ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
  IsaGuard guard;
  for (const int k : {2, 3, 9}) {
    simd::set_active_isa(native_isa_);
    const Image native = rank_filter(img, k, RankOp::Median);
    simd::set_active_isa(Isa::Scalar);
    const Image scalar = rank_filter(img, k, RankOp::Median);
    for (int c = 0; c < 2; ++c) {
      for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
          ASSERT_EQ(native.at(x, y, c), scalar.at(x, y, c))
              << "k=" << k << " (" << x << ", " << y << ", " << c << ")";
        }
      }
    }
  }
}

TEST(MedianPathCounters, RecordRouting) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Counter& grid8 = registry.counter("rank_median/grid8");
  obs::Counter& exact = registry.counter("rank_median/exact");
  Image img(8, 8, 1);
  for (float& v : img.plane(0)) v = 3.0f;
  const std::uint64_t grid8_before = grid8.value();
  (void)rank_filter(img, 3, RankOp::Median);
  EXPECT_EQ(grid8.value(), grid8_before + 1);
  img.plane(0)[0] = 0.7f;
  const std::uint64_t exact_before = exact.value();
  (void)rank_filter(img, 3, RankOp::Median);
  EXPECT_EQ(exact.value(), exact_before + 1);
}

}  // namespace
}  // namespace decam
