// The runtime SIMD dispatch shim (common/simd.h): ISA naming and
// selection, table swapping, the simd/dispatch gauge, and — on hosts that
// carry native tables — bit-exact parity of every SimdOps entry of each
// against the normative scalar loops, including the vector-width tails.
// The resize's four-row pass is held to apply_kernel in
// kernel_parity_test.cpp (ResizeParity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "data/rng.h"
#include "imaging/filter.h"
#include "signal/fft_plan.h"
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
  EXPECT_STREQ(simd::to_string(Isa::Avx512), "avx512");
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
  for (const Isa isa : {Isa::Avx2, Isa::Avx512}) {
    simd::set_active_isa(isa);
    const Isa got = simd::active_isa();
    EXPECT_EQ(got, simd::runnable(isa) ? isa : Isa::Scalar)
        << "requested " << simd::to_string(isa) << ", got "
        << simd::to_string(got);
  }
}

// The walk's block width per table; the AVX-512 table is the AVX2 one but
// for the walk's two passes.
TEST(SimdDispatch, WalkLanesPerTable) {
  IsaGuard guard;
  simd::set_active_isa(Isa::Scalar);
  EXPECT_EQ(simd::ops().pair_lanes, 4);
  if (!simd::runnable(Isa::Avx2)) GTEST_SKIP() << "no AVX2 table";
  simd::set_active_isa(Isa::Avx2);
  const SimdOps& avx2 = simd::ops();
  EXPECT_EQ(avx2.pair_lanes, 4);
  if (!simd::runnable(Isa::Avx512)) GTEST_SKIP() << "no AVX-512 table";
  simd::set_active_isa(Isa::Avx512);
  const SimdOps& avx512 = simd::ops();
  EXPECT_EQ(avx512.pair_lanes, 8);
  EXPECT_NE(avx512.pair_stats_hpass, avx2.pair_stats_hpass);
  EXPECT_NE(avx512.pair_stats_vpass, avx2.pair_stats_vpass);
  EXPECT_EQ(avx512.resize_rows4, avx2.resize_rows4);
  EXPECT_EQ(avx512.fft_lanes, avx2.fft_lanes);
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

// Sizes straddling the AVX2 vector widths (8 floats / 4 doubles), plus
// scalar-tail-only and empty cases.
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

// Every runnable native table against the scalar one. The AVX-512 table
// shares the AVX2 table's entries but for the pair-stats walk, so on an
// AVX-512 host those entries run twice.
class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::native_available()) {
      GTEST_SKIP() << "no native SIMD table on this host";
    }
    // The tables are process-lifetime statics, so holding pointers to all
    // of them (regardless of which is active) is fine. The startup table
    // may itself be scalar (DECAM_SIMD=scalar); each is resolved
    // explicitly.
    IsaGuard guard;
    simd::set_active_isa(Isa::Scalar);
    scalar_ = &simd::ops();
    for (const Isa isa : {Isa::Avx2, Isa::Avx512}) {
      if (!simd::runnable(isa)) continue;
      simd::set_active_isa(isa);
      ASSERT_EQ(simd::active_isa(), isa);
      ASSERT_STREQ(simd::ops().name, simd::to_string(isa));
      natives_.push_back(&simd::ops());
    }
    ASSERT_FALSE(natives_.empty());
  }

  const SimdOps* scalar_ = nullptr;
  std::vector<const SimdOps*> natives_;
};

template <typename T>
void expect_bits_equal(const std::vector<T>& got, const std::vector<T>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty()) return;  // data() may be null, and memcmp must not see it
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << what;
}

TEST_F(SimdParity, WeightedRowOps) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    const double w = 0.62345817;
    for (const int n : kSizes) {
      const auto in = random_floats(n, 40u + n);
      std::vector<float> fa(static_cast<std::size_t>(n)),
          fb(static_cast<std::size_t>(n));
      scalar_->weighted_assign_f32(fa.data(), in.data(), w, n);
      native->weighted_assign_f32(fb.data(), in.data(), w, n);
      expect_bits_equal(fa, fb, "weighted_assign_f32 n=" + std::to_string(n));

      std::vector<double> da(static_cast<std::size_t>(n)),
          db(static_cast<std::size_t>(n));
      scalar_->weighted_init_f64(da.data(), in.data(), w, n);
      native->weighted_init_f64(db.data(), in.data(), w, n);
      expect_bits_equal(da, db, "weighted_init_f64 n=" + std::to_string(n));

      scalar_->weighted_add_f64(da.data(), in.data(), 1.7 * w, n);
      native->weighted_add_f64(db.data(), in.data(), 1.7 * w, n);
      expect_bits_equal(da, db, "weighted_add_f64 n=" + std::to_string(n));

      scalar_->weighted_finish_f32(fa.data(), da.data(), in.data(), w, n);
      native->weighted_finish_f32(fb.data(), db.data(), in.data(), w, n);
      expect_bits_equal(fa, fb, "weighted_finish_f32 n=" + std::to_string(n));
    }
  }
}

TEST_F(SimdParity, ConvolveAndReduceOps) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    for (const int n : kSizes) {
      const auto in = random_floats(n, 50u + n);
      auto da = random_doubles(n, 70u + n);
      auto db = da;
      scalar_->tap_accumulate_f32(da.data(), in.data(), 0.125f, n);
      native->tap_accumulate_f32(db.data(), in.data(), 0.125f, n);
      expect_bits_equal(da, db, "tap_accumulate_f32 n=" + std::to_string(n));

      std::vector<float> fa(static_cast<std::size_t>(n)),
          fb(static_cast<std::size_t>(n));
      scalar_->narrow_f64_f32(fa.data(), da.data(), n);
      native->narrow_f64_f32(fb.data(), db.data(), n);
      expect_bits_equal(fa, fb, "narrow_f64_f32 n=" + std::to_string(n));
    }
  }
}

// The pair-stats walk: kSizes plus every width below the 11-tap window
// that kSizes skips, so every n mod 4 meets every edge-clamped tap count;
// widths 1-9 (every n mod 8 below one 8-pixel block and just past it);
// and widths around one and two products strips (S = kPairStrip) and one
// strip plus an 8-pixel block, where a strip that clamps meets one that
// does not, plus a row of many strips.
std::vector<int> pair_sizes() {
  constexpr int S = simd::kPairStrip;
  std::vector<int> sizes(std::begin(kSizes), std::end(kSizes));
  sizes.insert(sizes.end(),
               {2, 5, 6, 10, 11, 13, S - 1, S, S + 1, S + 7, S + 8, S + 9,
                2 * S - 1, 2 * S, 2 * S + 1, 1021});
  return sizes;
}

const double kPairWin[simd::kPairTaps] = {0.01, 0.03, 0.07, 0.12, 0.16, 0.22,
                                          0.16, 0.12, 0.07, 0.03, 0.01};

// Where `table`'s ring row keeps stat s of pixel i (common/simd.h).
std::size_t ring_at(const SimdOps& table, int i, int s) {
  const int lanes = table.pair_lanes;
  return static_cast<std::size_t>((i / lanes) * simd::kPairStats * lanes +
                                  s * lanes + i % lanes);
}

// Each table's ring row, read pixel by pixel through its own layout, and
// its MSE sum against the scalar table's.
TEST_F(SimdParity, PairStatsHpass) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    for (const int n : pair_sizes()) {
      const auto a = random_floats(n, 90u + n, 0.0, 255.0);
      const auto b = random_floats(n, 91u + n, 0.0, 255.0);
      // Exactly sized, so a sanitizer build sees any access past the end.
      std::vector<double> ring_s(
          simd::pair_row_doubles(n, scalar_->pair_lanes));
      std::vector<double> ring_n(
          simd::pair_row_doubles(n, native->pair_lanes));
      const double sq_s = scalar_->pair_stats_hpass(
          ring_s.data(), a.data(), b.data(), kPairWin, n, 0.375);
      const double sq_n = native->pair_stats_hpass(
          ring_n.data(), a.data(), b.data(), kPairWin, n, 0.375);
      for (int i = 0; i < n; ++i) {
        for (int st = 0; st < simd::kPairStats; ++st) {
          const double want = ring_s[ring_at(*scalar_, i, st)];
          const double got = ring_n[ring_at(*native, i, st)];
          ASSERT_EQ(0, std::memcmp(&want, &got, sizeof(double)))
              << "hpass ring n=" << n << " pixel " << i << " stat " << st
              << ": " << want << " vs " << got;
        }
      }
      EXPECT_EQ(0, std::memcmp(&sq_s, &sq_n, sizeof(double)))
          << "hpass sq_sum n=" << n << ": " << sq_s << " vs " << sq_n;
    }
  }
}

// Eleven distinct ring rows as the walk makes them, each table's from its
// own hpass over the same random source rows (PairStatsHpass holds those
// rows equal pixel by pixel), then the map sum against the scalar table's.
TEST_F(SimdParity, PairStatsVpass) {
  const auto map_total = [](const SimdOps& table, int n) {
    std::vector<std::vector<double>> ring(simd::kPairTaps);
    std::vector<const double*> rows;
    for (int t = 0; t < simd::kPairTaps; ++t) {
      const auto a = random_floats(n, 100u + 16u * n + t, 0.0, 255.0);
      const auto b = random_floats(n, 400u + 16u * n + t, 0.0, 255.0);
      ring[t].resize(simd::pair_row_doubles(n, table.pair_lanes));
      table.pair_stats_hpass(ring[t].data(), a.data(), b.data(), kPairWin, n,
                             0.0);
      rows.push_back(ring[t].data());
    }
    const double c1 = 6.5025;
    const double c2 = 58.5225;
    return table.pair_stats_vpass(rows.data(), kPairWin, c1, c2, n, 0.375);
  };
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    for (const int n : pair_sizes()) {
      const double total_s = map_total(*scalar_, n);
      const double total_n = map_total(*native, n);
      EXPECT_EQ(0, std::memcmp(&total_s, &total_n, sizeof(double)))
          << "vpass n=" << n << ": " << total_s << " vs " << total_n;
    }
  }
}

// The spectrum's log magnitudes: n = 0..9 (every tail length around a
// 4-bin step) and 1031, with bins of |F| = 0, tiny |F| and |F| up to
// 255 * w * h for a 4096² image; lo and hi start from values inside the
// range so both the lanes and the carried-in extremes decide.
TEST_F(SimdParity, LogMagnitudes) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    for (const int n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1031}) {
      data::Rng rng(600u + n);
      std::vector<double> re_of(static_cast<std::size_t>(n));
      std::vector<double> im_of(re_of.size());
      for (int i = 0; i < n; ++i) {
        double re = 0.0;
        double im = 0.0;
        switch (i % 4) {
          case 0:  // |F| = 0 (DC of an all-zero image)
            break;
          case 1:  // tiny magnitudes, where log(1 + |F|) ~ |F|
            re = rng.next_range(-1e-9, 1e-9);
            im = rng.next_range(-1e-300, 1e-300);
            break;
          case 2:  // the ordinary spectrum range
            re = rng.next_range(-1e4, 1e4);
            im = rng.next_range(-1e4, 1e4);
            break;
          default:  // up to the DC bound 255 * 4096 * 4096
            re = rng.next_range(-255.0 * 4096 * 4096, 255.0 * 4096 * 4096);
            im = rng.next_range(-1.0, 1.0);
            break;
        }
        re_of[static_cast<std::size_t>(i)] = re;
        im_of[static_cast<std::size_t>(i)] = im;
      }
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const std::pair<double, double> starts[] = {{kInf, -kInf}, {3.5, 3.5}};
      for (const auto& [lo0, hi0] : starts) {
        // The native run is in place (out = re), as the spectrum runs it.
        std::vector<double> out_s(static_cast<std::size_t>(n));
        std::vector<double> out_n = re_of;
        double lo_s = lo0, hi_s = hi0;
        double lo_n = lo0, hi_n = hi0;
        scalar_->log_magnitudes(out_s.data(), re_of.data(), im_of.data(), n,
                                &lo_s, &hi_s);
        native->log_magnitudes(out_n.data(), out_n.data(), im_of.data(), n,
                                &lo_n, &hi_n);
        const std::string what = "log_magnitudes n=" + std::to_string(n) +
                                 " lo0=" + std::to_string(lo0);
        expect_bits_equal(out_s, out_n, what);
        EXPECT_EQ(0, std::memcmp(&lo_s, &lo_n, sizeof(double))) << what;
        EXPECT_EQ(0, std::memcmp(&hi_s, &hi_n, sizeof(double))) << what;
      }
    }
  }
}

// The four-line transform on both tables, bit for bit, with different
// random data in every lane so that a lane swap shows. Buffers are sized
// exactly: an AddressSanitizer build sees a read past the last element.
TEST_F(SimdParity, FftLanes) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    constexpr int kLanes = simd::kFftLanes;
    for (const std::size_t n :
         {1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 49, 224, 448, 480, 640, 672, 900, 11,
          37, 301, 333, 449}) {
      for (const bool inverse : {false, true}) {
        data::Rng rng(700u + n * 2 + inverse);
        std::vector<double> re(n * kLanes), im(n * kLanes);
        for (double& v : re) v = rng.next_range(-255.0, 255.0);
        for (double& v : im) v = rng.next_range(-255.0, 255.0);
        const PlannedFft plan(n, inverse);
        const std::size_t work = kLanes * simd::fft_work_doubles(plan.lanes());
        std::vector<double> re_s = re, im_s = im, work_s(work);
        std::vector<double> re_n = re, im_n = im, work_n(work);
        scalar_->fft_lanes(plan.lanes(), re_s.data(), im_s.data(),
                           work_s.data());
        native->fft_lanes(plan.lanes(), re_n.data(), im_n.data(),
                           work_n.data());
        const std::string what = "fft_lanes n=" + std::to_string(n) +
                                 (inverse ? " inverse" : " forward");
        expect_bits_equal(re_s, re_n, what + " re");
        expect_bits_equal(im_s, im_n, what + " im");
      }
    }
  }
}

// The decoders' byte-to-plane store, 1 and 3 channels, every length across
// the vector widths and one long row; each plane sized exactly.
TEST_F(SimdParity, DeinterleaveU8) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    std::vector<int> sizes;
    for (int n = 0; n <= 33; ++n) sizes.push_back(n);
    sizes.push_back(1031);
    for (const int channels : {1, 3}) {
      for (const int n : sizes) {
        data::Rng rng(800u + n * 3 + channels);
        std::vector<std::uint8_t> src(static_cast<std::size_t>(n) * channels);
        for (std::uint8_t& b : src) {
          b = static_cast<std::uint8_t>(rng.next_range(0.0, 256.0));
        }
        std::vector<std::vector<float>> out_s(
            channels, std::vector<float>(static_cast<std::size_t>(n)));
        std::vector<std::vector<float>> out_n = out_s;
        std::vector<float*> dst_s, dst_n;
        for (int c = 0; c < channels; ++c) {
          dst_s.push_back(out_s[c].data());
          dst_n.push_back(out_n[c].data());
        }
        scalar_->deinterleave_u8(dst_s.data(), src.data(), channels, n);
        native->deinterleave_u8(dst_n.data(), src.data(), channels, n);
        for (int c = 0; c < channels; ++c) {
          const std::string what = "deinterleave_u8 channels=" +
                                   std::to_string(channels) +
                                   " n=" + std::to_string(n) +
                                   " plane " + std::to_string(c);
          expect_bits_equal(out_s[c], out_n[c], what);
          for (int i = 0; i < n; ++i) {
            ASSERT_EQ(out_s[c][static_cast<std::size_t>(i)],
                      static_cast<float>(
                          src[static_cast<std::size_t>(i) * channels + c]))
                << what << " at " << i;
          }
        }
      }
    }
  }
}

// The k = 3 median's row check on both tables: every length across the
// 32-sample vector body and its tail, on the grid (-0.0 included) and with
// one off-grid sample of each kind at the vector edges and the row ends.
// dst is defined for every input, so it is compared off the grid too.
TEST_F(SimdParity, Grid8U8) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float off_grid[] = {0.5f,  -1.0f, 256.0f, 255.5f,
                              std::numeric_limits<float>::quiet_NaN(),
                              kInf,  -kInf, 1e30f};
    std::vector<int> sizes;
    for (int n = 0; n <= 70; ++n) sizes.push_back(n);
    sizes.push_back(1031);
    for (const int n : sizes) {
      data::Rng rng(900u + n);
      std::vector<float> row(static_cast<std::size_t>(n));
      for (float& v : row) {
        v = static_cast<float>(static_cast<int>(rng.next_range(0.0, 256.0)));
      }
      if (n > 2) row[2] = -0.0f;
      std::vector<std::uint8_t> dst_s(row.size()), dst_n(row.size());
      const bool on_s = scalar_->grid8_u8(dst_s.data(), row.data(), n);
      const bool on_n = native->grid8_u8(dst_n.data(), row.data(), n);
      EXPECT_TRUE(on_s) << "n=" << n;
      EXPECT_TRUE(on_n) << "n=" << n;
      expect_bits_equal(dst_s, dst_n, "grid8_u8 n=" + std::to_string(n));
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(dst_s[static_cast<std::size_t>(i)],
                  static_cast<std::uint8_t>(row[static_cast<std::size_t>(i)]))
            << "n=" << n << " at " << i;
      }
      for (const int at : {0, 1, 7, 8, 15, 16, 31, 32, 33, 63, 64, n - 2,
                           n - 1}) {
        if (at < 0 || at >= n) continue;
        for (const float v : off_grid) {
          std::vector<float> probe = row;
          probe[static_cast<std::size_t>(at)] = v;
          const std::string what = "grid8_u8 n=" + std::to_string(n) +
                                   " value " + std::to_string(v) + " at " +
                                   std::to_string(at);
          EXPECT_FALSE(scalar_->grid8_u8(dst_s.data(), probe.data(), n))
              << what;
          EXPECT_FALSE(native->grid8_u8(dst_n.data(), probe.data(), n))
              << what;
          expect_bits_equal(dst_s, dst_n, what);
        }
      }
    }
  }
}

// The 3x3 network on both tables and against the sorted nine samples of
// every clamped window: every length across the vector body and the two
// clamped columns at the right edge, rows of random bytes and rows drawn
// from {0, 255} only.
TEST_F(SimdParity, Median3U8) {
  for (const SimdOps* native : natives_) {
    SCOPED_TRACE(native->name);
    std::vector<int> sizes;
    for (int n = 1; n <= 70; ++n) sizes.push_back(n);
    sizes.push_back(1031);
    for (const int n : sizes) {
      for (const bool binary : {false, true}) {
        data::Rng rng(950u + 2u * n + binary);
        std::vector<std::vector<std::uint8_t>> rows(
            3, std::vector<std::uint8_t>(static_cast<std::size_t>(n)));
        for (auto& r : rows) {
          for (std::uint8_t& b : r) {
            const double u = rng.next_range(0.0, 256.0);
            b = binary ? (u < 128.0 ? 0 : 255) : static_cast<std::uint8_t>(u);
          }
        }
        std::vector<float> out_s(static_cast<std::size_t>(n));
        std::vector<float> out_n(out_s.size());
        scalar_->median3_u8(out_s.data(), rows[0].data(), rows[1].data(),
                            rows[2].data(), n);
        native->median3_u8(out_n.data(), rows[0].data(), rows[1].data(),
                            rows[2].data(), n);
        const std::string what = "median3_u8 n=" + std::to_string(n) +
                                 (binary ? " binary" : "");
        expect_bits_equal(out_s, out_n, what);
        for (int x = 0; x < n; ++x) {
          std::vector<std::uint8_t> window;
          for (const auto& r : rows) {
            for (int d = 0; d < 3; ++d) {
              window.push_back(
                  r[static_cast<std::size_t>(std::min(x + d, n - 1))]);
            }
          }
          std::sort(window.begin(), window.end());
          ASSERT_EQ(out_s[static_cast<std::size_t>(x)],
                    static_cast<float>(window[4]))
              << what << " at " << x;
        }
      }
    }
  }
}

// rank_filter's medians with each table forced: the k = 3 network and its
// row check are table entries, so the two runs execute different code. 97
// columns run the 32-byte vector body and its tail; the second image
// leaves the grid only in its last row, so both tables abandon a pass
// that has already written rows.
TEST_F(SimdParity, MedianIdenticalUnderForcedIsa) {
  data::Rng rng(314);
  Image img(97, 21, 2);
  for (int c = 0; c < 2; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(static_cast<int>(rng.next_range(0.0, 256.0)));
    }
  }
  ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
  Image late = img;
  late.row(late.height() - 1, 1).data()[60] = 17.5f;
  ASSERT_EQ(classify_median_path(late), MedianPath::Exact);
  IsaGuard guard;
  for (const Image* image : {&img, &late}) {
    for (const int k : {2, 3, 9}) {
      simd::set_active_isa(Isa::Avx2);
      const Image native = rank_filter(*image, k, RankOp::Median);
      simd::set_active_isa(Isa::Scalar);
      const Image scalar = rank_filter(*image, k, RankOp::Median);
      for (int c = 0; c < 2; ++c) {
        for (int y = 0; y < image->height(); ++y) {
          for (int x = 0; x < image->width(); ++x) {
            ASSERT_EQ(native.at(x, y, c), scalar.at(x, y, c))
                << (image == &late ? "late " : "") << "k=" << k << " (" << x
                << ", " << y << ", " << c << ")";
          }
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
  // Only k = 3 has a Grid8 route: a grid image at any other k takes the
  // sorted window.
  img.plane(0)[0] = 3.0f;
  for (const int k : {2, 5}) {
    const std::uint64_t grid8_at = grid8.value();
    const std::uint64_t exact_at = exact.value();
    (void)rank_filter(img, k, RankOp::Median);
    EXPECT_EQ(grid8.value(), grid8_at) << "k=" << k;
    EXPECT_EQ(exact.value(), exact_at + 1) << "k=" << k;
  }
}

}  // namespace
}  // namespace decam
