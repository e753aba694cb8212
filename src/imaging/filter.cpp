#include "imaging/filter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace decam {

namespace {

struct MinOp {
  float operator()(float a, float b) const { return a < b ? a : b; }
};
struct MaxOp {
  float operator()(float a, float b) const { return a > b ? a : b; }
};

// --------------------------------------------------------- van Herk core --
//
// Sliding-window min/max in 3 comparisons per sample independent of k
// (van Herk 1992; Gil & Werman 1993). Over a padded array `a` of length
// m = n + k - 1 the window result is
//     out[j] = op(L[j], R[j + k - 1]),
// where R is the running op from the start of each k-aligned block and L the
// running op from the end of the block. Border replication is handled by the
// caller padding the last k - 1 samples with the edge value, which
// reproduces the clamped-window semantics of the naive filter exactly (the
// result is always an element of the input, so the pass is bit-exact).

// One padded scanline: out[j] = op over a[j .. j+k-1], j in [0, n).
template <typename Op>
void van_herk_line(const float* a, int m, int k, float* left, float* right,
                   float* out, int n, Op op) {
  for (int block = 0; block < m; block += k) {
    const int end = std::min(block + k, m);
    right[block] = a[block];
    for (int i = block + 1; i < end; ++i) right[i] = op(right[i - 1], a[i]);
    left[end - 1] = a[end - 1];
    for (int i = end - 2; i >= block; --i) left[i] = op(left[i + 1], a[i]);
  }
  for (int j = 0; j < n; ++j) out[j] = op(left[j], right[j + k - 1]);
}

// Separable rank min/max: horizontal van Herk per scanline, then a vertical
// van Herk over whole rows (row-major, so the plane is walked in contiguous
// cache lines; the "array elements" of the vertical pass are entire rows
// combined elementwise).
template <typename Op>
void rank_min_max(const Image& img, int k, Op op, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const int mx = w + k - 1;  // padded scanline length
  const int my = h + k - 1;  // padded row count

  std::vector<float> pad(static_cast<std::size_t>(mx));
  std::vector<float> left(static_cast<std::size_t>(mx));
  std::vector<float> right(static_cast<std::size_t>(mx));
  // Vertical scratch: block-prefix and block-suffix planes over padded rows.
  const std::size_t plane = static_cast<std::size_t>(my) * w;
  std::vector<float> vert_right(plane);
  std::vector<float> vert_left(plane);
  Image row_pass(w, h, 1);

  for (int c = 0; c < img.channels(); ++c) {
    // Horizontal: out(x) = op over row[x .. x+k-1] with edge replication.
    for (int y = 0; y < h; ++y) {
      const float* row = img.row(y, c).data();
      std::copy(row, row + w, pad.begin());
      std::fill(pad.begin() + w, pad.end(), row[w - 1]);
      van_herk_line(pad.data(), mx, k, left.data(), right.data(),
                    row_pass.row(y, 0).data(), w, op);
    }

    // Vertical: the padded "array" is the row sequence 0..h-1 followed by
    // k-1 copies of the last row; R/L are computed per k-aligned block.
    auto padded_row = [&](int r) {
      return row_pass.row(std::min(r, h - 1), 0).data();
    };
    for (int block = 0; block < my; block += k) {
      const int end = std::min(block + k, my);
      float* r_first = vert_right.data() + static_cast<std::size_t>(block) * w;
      std::copy(padded_row(block), padded_row(block) + w, r_first);
      for (int i = block + 1; i < end; ++i) {
        const float* prev =
            vert_right.data() + static_cast<std::size_t>(i - 1) * w;
        float* cur = vert_right.data() + static_cast<std::size_t>(i) * w;
        const float* a = padded_row(i);
        for (int x = 0; x < w; ++x) cur[x] = op(prev[x], a[x]);
      }
      float* l_last = vert_left.data() + static_cast<std::size_t>(end - 1) * w;
      std::copy(padded_row(end - 1), padded_row(end - 1) + w, l_last);
      for (int i = end - 2; i >= block; --i) {
        const float* next =
            vert_left.data() + static_cast<std::size_t>(i + 1) * w;
        float* cur = vert_left.data() + static_cast<std::size_t>(i) * w;
        const float* a = padded_row(i);
        for (int x = 0; x < w; ++x) cur[x] = op(next[x], a[x]);
      }
    }
    for (int y = 0; y < h; ++y) {
      const float* l = vert_left.data() + static_cast<std::size_t>(y) * w;
      const float* r =
          vert_right.data() + static_cast<std::size_t>(y + k - 1) * w;
      float* o = out.row(y, c).data();
      for (int x = 0; x < w; ++x) o[x] = op(l[x], r[x]);
    }
  }
}

// Exact median via an incrementally maintained sorted window: sliding one
// column in/out of the k x k window costs k binary-search erases + k
// binary-search inserts into a k^2 array (tiny memmoves) instead of
// rebuilding and nth_element-ing the window per pixel. The median is always
// an element of the input, so results match the naive filter bit-exactly —
// including the duplicated values clamped borders contribute. This is the
// fallback for float images off the 8/16-bit grids (see
// classify_median_path); the grid paths below are O(1) per pixel.
void rank_median_exact(const Image& img, int k, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const std::size_t window_size = static_cast<std::size_t>(k) * k;
  const std::size_t mid = window_size / 2;
  std::vector<float> window;
  window.reserve(window_size);
  std::vector<const float*> rows(static_cast<std::size_t>(k));

  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      for (int dy = 0; dy < k; ++dy) {
        rows[static_cast<std::size_t>(dy)] =
            img.row(std::min(y + dy, h - 1), c).data();
      }
      // Build the x = 0 window sorted.
      window.clear();
      for (int dx = 0; dx < k; ++dx) {
        const int col = std::min(dx, w - 1);
        for (int dy = 0; dy < k; ++dy) {
          window.push_back(rows[static_cast<std::size_t>(dy)][col]);
        }
      }
      std::sort(window.begin(), window.end());
      float* out_row = out.row(y, c).data();
      out_row[0] = window[mid];
      for (int x = 1; x < w; ++x) {
        // Slide: column x-1 leaves, column x+k-1 (clamped) enters. Each
        // leave/enter pair is one replace-and-rotate (a single short
        // memmove) rather than a separate erase + insert.
        const int col_out = x - 1;
        const int col_in = std::min(x + k - 1, w - 1);
        for (int dy = 0; dy < k; ++dy) {
          const float leave = rows[static_cast<std::size_t>(dy)][col_out];
          const float enter = rows[static_cast<std::size_t>(dy)][col_in];
          const auto pos =
              std::lower_bound(window.begin(), window.end(), leave);
          if (enter >= leave) {
            const auto dst =
                std::lower_bound(pos + 1, window.end(), enter);
            std::move(pos + 1, dst, pos);
            *(dst - 1) = enter;
          } else {
            const auto dst = std::lower_bound(window.begin(), pos, enter);
            std::move_backward(dst, pos, pos + 1);
            *dst = enter;
          }
        }
        out_row[x] = window[mid];
      }
    }
  }
}

// Values are exactly integral in [0, 255] on the Grid8 path
// (classify_median_path), so the u8 index plane is a lossless relabeling.
void relabel_u8(const float* plane, std::uint8_t* idx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<std::uint8_t>(static_cast<int>(plane[i]));
  }
}

// ------------------------------------------------ 3x3 selection network --
//
// The k = 3 Grid8 median without a histogram: sort each column of the
// (clamped) 3-row window into lo <= mid <= hi, then the window median is
// med3(max3(lo), med3(mid), min3(hi)) over the three columns. Each column
// sort is shared by the three outputs whose windows hold it. Min/max only,
// so the result is one of the window's own samples, and the loops over
// uint8_t vectorize as written (pminub/pmaxub at the -O3 the imaging build
// uses). Columns past the right edge replicate column w-1, matching the
// clamped window.
inline std::uint8_t med3(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

void rank_median3_grid8(const Image& img, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const std::size_t padded = static_cast<std::size_t>(w) + 2;
  std::vector<std::uint8_t> idx(img.plane_size());
  std::vector<std::uint8_t> lo(padded);
  std::vector<std::uint8_t> mid(padded);
  std::vector<std::uint8_t> hi(padded);

  for (int c = 0; c < img.channels(); ++c) {
    relabel_u8(img.plane(c).data(), idx.data(), idx.size());
    for (int y = 0; y < h; ++y) {
      const std::uint8_t* r0 = idx.data() + static_cast<std::size_t>(y) * w;
      const std::uint8_t* r1 =
          idx.data() + static_cast<std::size_t>(std::min(y + 1, h - 1)) * w;
      const std::uint8_t* r2 =
          idx.data() + static_cast<std::size_t>(std::min(y + 2, h - 1)) * w;
      for (int x = 0; x < w; ++x) {
        const std::uint8_t a = std::min(r0[x], r1[x]);
        const std::uint8_t b = std::max(r0[x], r1[x]);
        lo[x] = std::min(a, r2[x]);
        mid[x] = std::max(a, std::min(b, r2[x]));
        hi[x] = std::max(b, r2[x]);
      }
      lo[w] = lo[w + 1] = lo[w - 1];
      mid[w] = mid[w + 1] = mid[w - 1];
      hi[w] = hi[w + 1] = hi[w - 1];
      float* out_row = out.row(y, c).data();
      for (int x = 0; x < w; ++x) {
        const std::uint8_t max_lo =
            std::max(std::max(lo[x], lo[x + 1]), lo[x + 2]);
        const std::uint8_t med_mid = med3(mid[x], mid[x + 1], mid[x + 2]);
        const std::uint8_t min_hi =
            std::min(std::min(hi[x], hi[x + 1]), hi[x + 2]);
        out_row[x] = static_cast<float>(med3(max_lo, med_mid, min_hi));
      }
    }
  }
}

// ------------------------------------------- running-histogram median --
//
// Perreault & Hébert 2007: one histogram per image column, maintained
// incrementally as the window moves down, and a kernel histogram that
// slides across the row by adding the entering column's histogram and
// subtracting the leaving one — constant work per pixel, independent of k.
// Two levels keep the per-pixel work small: 16 coarse bins (the high
// nibble) are merged on every step and locate the 16-bin fine segment
// holding the median; fine segments are synced lazily, only when the
// coarse descent lands on them, each tracking the window position it last
// summed. Both levels live in one contiguous 272-entry uint16 block per
// column (fine 0..255, coarse 256..271); the row-start rebuild is a SIMD
// sweep (simd::ops().hist_add_u16) and both rank descents are branch-free
// — on x86-64 an inlined SSE2 prefix-sum descent, elsewhere the scalar
// hist_rank16 below. This path serves every Grid8 median with k != 3.
//
// Counts are uint16: the kernel histogram holds exactly k*k samples
// (clamped borders re-count edge pixels), so k <= 255 guarantees no
// overflow; rank_median() falls back to the exact path beyond that.
constexpr int kFineBins8 = 256;
constexpr int kCoarseBins8 = 16;
constexpr int kHistStride8 = kFineBins8 + kCoarseBins8;

constexpr int kSegBins8 = 16;  // fine bins per coarse segment

// One level of the two-level rank descent: smallest index whose inclusive
// prefix sum exceeds `r` (16 when none does), with `*below` receiving the
// prefix sum before it. It runs twice per output pixel, so it is inlined
// here. Counts are integers, so both formulations below are exact and
// interchangeable.
// The SSE2 path keeps prefix sums in u16 lanes, which is valid because
// the k <= 255 routing guard bounds every window total by k*k <= 65025.
#if defined(__SSE2__)
// SSE2 is x86-64 baseline, so this TU may use it without -m flags. The
// descent works on 16-bin *inclusive prefix sums* held in two XMM halves:
// unsigned compare via saturating subtract, index from a psadbw count of
// the lanes the compare keeps. The prefixes themselves are maintained
// incrementally (add the prefix of the per-step delta strip), which keeps
// the per-pixel serial chain to one vector add + compare + count instead
// of a full in-loop prefix computation — the descent latency, not its
// throughput, is what bounds this filter.
inline __m128i load16(const std::uint16_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store16(std::uint16_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
// Inclusive u16 prefix sum of 8 lanes (three lane-shift adds).
inline __m128i prefix8_sse2(__m128i x) {
  x = _mm_add_epi16(x, _mm_slli_si128(x, 2));
  x = _mm_add_epi16(x, _mm_slli_si128(x, 4));
  return _mm_add_epi16(x, _mm_slli_si128(x, 8));
}
// Broadcast lane 7 (the running total) to all lanes — two shuffles, no
// GPR round trip.
inline __m128i bcast_lane7_sse2(__m128i x) {
  x = _mm_shufflehi_epi16(x, _MM_SHUFFLE(3, 3, 3, 3));
  return _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
}
// Count of prefix lanes <= rank (== the descent index); the compare masks
// are returned for the caller's masked `below` sum. cum <= r  <=>
// saturating cum - r == 0 (unsigned u16 compare in SSE2).
inline int count_le_sse2(__m128i p0, __m128i p1, __m128i rv, __m128i* le0,
                         __m128i* le1) {
  const __m128i zero = _mm_setzero_si128();
  *le0 = _mm_cmpeq_epi16(_mm_subs_epu16(p0, rv), zero);
  *le1 = _mm_cmpeq_epi16(_mm_subs_epu16(p1, rv), zero);
  // Horizontal count of set lanes via psadbw over 0/1/2-valued bytes.
  // Never use movemask + __builtin_popcount here: without -mpopcnt that
  // lowers to a __popcountdi2 libcall, and two calls per pixel force the
  // compiler to spill every live XMM register around them — measured as
  // the single largest cost in this loop.
  const __m128i one = _mm_set1_epi16(1);
  const __m128i cnt = _mm_sad_epu8(
      _mm_add_epi16(_mm_and_si128(*le0, one), _mm_and_si128(*le1, one)),
      zero);
  return _mm_cvtsi128_si32(_mm_add_epi64(cnt, _mm_srli_si128(cnt, 8)));
}
#else
inline int hist_rank16(const std::uint16_t* bins, std::uint32_t r,
                       std::uint32_t* below) {
  std::uint32_t cum = 0;
  std::uint32_t pre = 0;
  int idx = 0;
  for (int i = 0; i < 16; ++i) {
    cum += bins[i];
    const bool le = cum <= r;
    idx += le ? 1 : 0;
    pre = le ? cum : pre;
  }
  *below = pre;
  return idx;
}
#endif

void rank_median_hist8(const Image& img, int k, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const simd::SimdOps& ops = simd::ops();
  const unsigned rank = static_cast<unsigned>(k) * k / 2;  // upper median

  std::vector<std::uint8_t> idx(img.plane_size());
  std::vector<std::uint16_t> cols(static_cast<std::size_t>(w) *
                                  kHistStride8);
  std::vector<std::uint16_t> kern(kHistStride8);
  // sync[s] = window position x whose columns the kernel fine segment s
  // currently sums. The coarse level is merged every step; fine segments
  // are brought forward only when the coarse descent lands on them
  // (Perreault & Hébert's conditional fine update) — with spatially
  // coherent medians that is a couple of 16-bin column strips per pixel
  // instead of the full 256-bin merge.
  std::array<int, kCoarseBins8> sync{};
  const auto col_hist = [&](int x) {
    return cols.data() + static_cast<std::size_t>(x) * kHistStride8;
  };
#if defined(__SSE2__)
  // Median codes are produced as integers and converted to float in one
  // vector pass per row: a per-pixel cvtsi2ss sits on the already tight
  // descent chain, a batched cvtdq2ps does not.
  std::vector<std::int32_t> code(static_cast<std::size_t>(w));
#endif

#if !defined(__SSE2__)
  // Bring fine segment s forward from window position sync[s] to x: slide
  // (subtract the leaving column strip, add the entering one, exactly the
  // strips a full per-step merge would have applied) — or rebuild from the
  // k window columns when that is fewer strip operations.
  const auto sync_segment = [&](int s, int x) {
    std::uint16_t* seg = kern.data() + s * kSegBins8;
    const int x0 = sync[static_cast<std::size_t>(s)];
    if (x0 == x) return;
    if (2 * (x - x0) > k + 1) {
      std::fill(seg, seg + kSegBins8, std::uint16_t{0});
      for (int j = 0; j < k; ++j) {
        const std::uint16_t* col =
            col_hist(std::min(x + j, w - 1)) + s * kSegBins8;
        for (int t = 0; t < kSegBins8; ++t) {
          seg[t] = static_cast<std::uint16_t>(seg[t] + col[t]);
        }
      }
    } else {
      for (int j = x0; j < x; ++j) {
        const std::uint16_t* add =
            col_hist(std::min(j + k, w - 1)) + s * kSegBins8;
        const std::uint16_t* sub = col_hist(j) + s * kSegBins8;
        for (int t = 0; t < kSegBins8; ++t) {
          seg[t] = static_cast<std::uint16_t>(seg[t] + add[t] - sub[t]);
        }
      }
    }
    sync[static_cast<std::size_t>(s)] = x;
  };

  // Two-level descent at window position x: branch-free coarse rank, lazy
  // sync of the winning segment, branch-free fine rank within it. Results
  // are integer counts, identical on every path.
  const auto select = [&](int x) {
    std::uint32_t below = 0;
    const int s = hist_rank16(kern.data() + kFineBins8, rank, &below);
    sync_segment(s, x);
    std::uint32_t unused = 0;
    const int off =
        hist_rank16(kern.data() + s * kSegBins8, rank - below, &unused);
    return static_cast<float>(s * kSegBins8 + off);
  };
#endif

  for (int c = 0; c < img.channels(); ++c) {
    relabel_u8(img.plane(c).data(), idx.data(), idx.size());

    // Prime the column histograms with window rows of y = 0 (clamped).
    std::fill(cols.begin(), cols.end(), std::uint16_t{0});
    for (int r = 0; r < k; ++r) {
      const std::uint8_t* row =
          idx.data() + static_cast<std::size_t>(std::min(r, h - 1)) * w;
      for (int x = 0; x < w; ++x) {
        std::uint16_t* col = col_hist(x);
        ++col[row[x]];
        ++col[kFineBins8 + (row[x] >> 4)];
      }
    }

    for (int y = 0; y < h; ++y) {
      if (y > 0) {
        // Window rows {clamp(y-1+d)} -> {clamp(y+d)}: row y-1 leaves, row
        // clamp(y+k-1) enters (identical when the bottom edge clamps).
        const std::uint8_t* leave =
            idx.data() + static_cast<std::size_t>(y - 1) * w;
        const std::uint8_t* enter =
            idx.data() + static_cast<std::size_t>(std::min(y + k - 1, h - 1)) * w;
        for (int x = 0; x < w; ++x) {
          std::uint16_t* col = col_hist(x);
          --col[leave[x]];
          --col[kFineBins8 + (leave[x] >> 4)];
          ++col[enter[x]];
          ++col[kFineBins8 + (enter[x] >> 4)];
        }
      }

      // Full kernel histogram (both levels, every segment synced) at x = 0.
      // Columns past the right edge replicate column w-1, re-adding its
      // histogram.
      std::fill(kern.begin(), kern.end(), std::uint16_t{0});
      for (int j = 0; j < k; ++j) {
        ops.hist_add_u16(kern.data(), col_hist(std::min(j, w - 1)),
                         kHistStride8);
      }
      sync.fill(0);
      float* out_row = out.row(y, c).data();
#if defined(__SSE2__)
      // Register-resident, prefix-domain inner loop. Everything the two
      // rank descents touch stays in XMM registers across the row:
      //   cp0/cp1 — inclusive prefix sums of the 16 coarse counts,
      //   fp0/fp1 — the prefix sums of the fine segment `s_cur`.
      // Per step, the prefix registers advance by the *prefix of the
      // delta strip* (entering minus leaving column), which is
      // independent of the descents and schedules ahead of them; the
      // per-pixel serial chain is then just add -> compare -> lane
      // count per level. Descent latency — not arithmetic
      // throughput — is what bounds this loop; formulations that
      // recompute prefixes in-loop or round-trip counts through memory
      // measure ~50% slower on chain latency and store-forwarding
      // stalls.
      //
      // u16 prefix lanes stay exact under the wrapping deltas because
      // every true prefix is bounded by the window total k*k <= 65025.
      //
      // The fine segment is synced to memory only when the descent
      // *switches* segments (sync[] keeps each segment's last synced
      // position); while resident it slides in registers and memory is
      // deliberately left stale — correct, because sync[s_cur] still
      // names the position its memory copy reflects.
      const __m128i rankv = _mm_set1_epi16(static_cast<short>(rank));
      __m128i cp0 = prefix8_sse2(load16(kern.data() + kFineBins8));
      __m128i cp1 =
          _mm_add_epi16(prefix8_sse2(load16(kern.data() + kFineBins8 + 8)),
                        bcast_lane7_sse2(cp0));
      int s_cur = -1;  // no fine segment resident yet
      __m128i fp0 = _mm_setzero_si128();
      __m128i fp1 = _mm_setzero_si128();
      for (int x = 0; x < w; ++x) {
        if (x > 0) {
          const std::uint16_t* addcol = col_hist(std::min(x + k - 1, w - 1));
          const std::uint16_t* subcol = col_hist(x - 1);
          // Coarse prefix advances by the prefix of the delta strip.
          const std::uint16_t* addc = addcol + kFineBins8;
          const std::uint16_t* subc = subcol + kFineBins8;
          const __m128i dc0 = _mm_sub_epi16(load16(addc), load16(subc));
          const __m128i dc1 =
              _mm_sub_epi16(load16(addc + 8), load16(subc + 8));
          const __m128i pc0 = prefix8_sse2(dc0);
          const __m128i pc1 =
              _mm_add_epi16(prefix8_sse2(dc1), bcast_lane7_sse2(pc0));
          cp0 = _mm_add_epi16(cp0, pc0);
          cp1 = _mm_add_epi16(cp1, pc1);
          // Resident fine segment: slide its prefix the same way. This
          // is speculative — wasted only when the descent switches
          // segments — and its strip addresses are known before the
          // coarse descent resolves, so it runs in the latency shadow.
          const std::uint16_t* addf = addcol + s_cur * kSegBins8;
          const std::uint16_t* subf = subcol + s_cur * kSegBins8;
          const __m128i df0 = _mm_sub_epi16(load16(addf), load16(subf));
          const __m128i df1 =
              _mm_sub_epi16(load16(addf + 8), load16(subf + 8));
          const __m128i pf0 = prefix8_sse2(df0);
          const __m128i pf1 =
              _mm_add_epi16(prefix8_sse2(df1), bcast_lane7_sse2(pf0));
          fp0 = _mm_add_epi16(fp0, pf0);
          fp1 = _mm_add_epi16(fp1, pf1);
        }
        __m128i le0;
        __m128i le1;
        const int s = count_le_sse2(cp0, cp1, rankv, &le0, &le1);
        // below = coarse prefix before segment s. The masked prefixes are
        // nondecreasing, so their max is exactly cp[s-1]; every lane the
        // mask keeps is <= rank <= 32512, inside signed-16 range, so
        // epi16 max is exact. Folded and broadcast without leaving the
        // vector domain — a GPR round trip (extract + set1) would add
        // ~6 cycles to the chain feeding the fine compare — and folds in
        // parallel with the popcount that produces s.
        __m128i bv = _mm_max_epi16(_mm_and_si128(cp0, le0),
                                   _mm_and_si128(cp1, le1));
        bv = _mm_max_epi16(bv, _mm_srli_si128(bv, 8));
        bv = _mm_max_epi16(bv, _mm_srli_si128(bv, 4));
        bv = _mm_max_epi16(bv, _mm_srli_si128(bv, 2));
        bv = _mm_shufflelo_epi16(bv, _MM_SHUFFLE(0, 0, 0, 0));
        bv = _mm_shuffle_epi32(bv, _MM_SHUFFLE(0, 0, 0, 0));
        const __m128i rvf = _mm_sub_epi16(rankv, bv);
        if (s != s_cur) {
          // Bring segment s forward from sync[s] (slide, or rebuild from
          // the k window columns when that is fewer strips), write the
          // raw counts back for future switches, and promote its prefix
          // to the registers.
          std::uint16_t* seg = kern.data() + s * kSegBins8;
          __m128i f0;
          __m128i f1;
          const int x0 = sync[static_cast<std::size_t>(s)];
          if (x0 == x) {
            f0 = load16(seg);
            f1 = load16(seg + 8);
          } else {
            if (2 * (x - x0) > k + 1) {
              f0 = _mm_setzero_si128();
              f1 = _mm_setzero_si128();
              for (int j = 0; j < k; ++j) {
                const std::uint16_t* col =
                    col_hist(std::min(x + j, w - 1)) + s * kSegBins8;
                f0 = _mm_add_epi16(f0, load16(col));
                f1 = _mm_add_epi16(f1, load16(col + 8));
              }
            } else {
              f0 = load16(seg);
              f1 = load16(seg + 8);
              for (int j = x0; j < x; ++j) {
                const std::uint16_t* add =
                    col_hist(std::min(j + k, w - 1)) + s * kSegBins8;
                const std::uint16_t* sub = col_hist(j) + s * kSegBins8;
                f0 = _mm_sub_epi16(_mm_add_epi16(f0, load16(add)),
                                   load16(sub));
                f1 = _mm_sub_epi16(_mm_add_epi16(f1, load16(add + 8)),
                                   load16(sub + 8));
              }
            }
            store16(seg, f0);
            store16(seg + 8, f1);
            sync[static_cast<std::size_t>(s)] = x;
          }
          fp0 = prefix8_sse2(f0);
          fp1 = _mm_add_epi16(prefix8_sse2(f1), bcast_lane7_sse2(fp0));
          s_cur = s;
        }
        __m128i g0;
        __m128i g1;
        const int off = count_le_sse2(fp0, fp1, rvf, &g0, &g1);
        code[x] = s * kSegBins8 + off;
      }
      {
        int x = 0;
        for (; x + 4 <= w; x += 4) {
          _mm_storeu_ps(out_row + x,
                        _mm_cvtepi32_ps(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(code.data() + x))));
        }
        for (; x < w; ++x) out_row[x] = static_cast<float>(code[x]);
      }
#else
      out_row[0] = select(0);
      for (int x = 1; x < w; ++x) {
        // Slide the coarse level only; fine segments catch up on demand.
        const std::uint16_t* addc =
            col_hist(std::min(x + k - 1, w - 1)) + kFineBins8;
        const std::uint16_t* subc = col_hist(x - 1) + kFineBins8;
        std::uint16_t* kc = kern.data() + kFineBins8;
        for (int t = 0; t < kCoarseBins8; ++t) {
          kc[t] = static_cast<std::uint16_t>(kc[t] + addc[t] - subc[t]);
        }
        out_row[x] = select(x);
      }
#endif
    }
  }
}

// 16-bit grid (values i / 256 for integral i in [0, 65535]): per-column
// fine histograms would need 128 KiB each, so this path runs Huang's
// algorithm instead — one kernel histogram, updated with the k samples of
// the entering column and the k of the leaving one — walked in serpentine
// order so moving down a row reuses the window instead of rebuilding it.
// Still two-level (256 coarse segments of 256 fine bins) to keep the
// median search short. O(k) per pixel, but with counters instead of the
// sorted window's O(k log k) memmove traffic.
void rank_median_hist16(const Image& img, int k, Image& out) {
  const int w = img.width();
  const int h = img.height();
  const unsigned rank = static_cast<unsigned>(k) * k / 2;

  std::vector<std::uint16_t> idx(img.plane_size());
  std::vector<std::uint16_t> fine(65536);
  std::vector<std::uint16_t> coarse(256);
  const auto add = [&](std::uint16_t v) {
    ++fine[v];
    ++coarse[v >> 8];
  };
  const auto remove = [&](std::uint16_t v) {
    --fine[v];
    --coarse[v >> 8];
  };
  const auto select = [&]() {
    unsigned cum = 0;
    int seg = 0;
    for (;; ++seg) {
      const unsigned next = cum + coarse[seg];
      if (next > rank) break;
      cum = next;
    }
    int bin = seg * 256;
    for (;; ++bin) {
      cum += fine[bin];
      if (cum > rank) break;
    }
    // Exact reconstruction: bin and 2^-8 are both exact in float, so the
    // product is the original sample value bit for bit.
    return static_cast<float>(bin) * 0.00390625f;
  };

  std::vector<const std::uint16_t*> rows(static_cast<std::size_t>(k));
  for (int c = 0; c < img.channels(); ++c) {
    const float* plane = img.plane(c).data();
    for (std::size_t i = 0; i < idx.size(); ++i) {
      // v * 256 is integral and in [0, 65535] (classify_median_path); the
      // power-of-two scale is exact, so this is a lossless relabeling.
      idx[i] = static_cast<std::uint16_t>(
          static_cast<int>(plane[i] * 256.0f));
    }
    std::fill(fine.begin(), fine.end(), std::uint16_t{0});
    std::fill(coarse.begin(), coarse.end(), std::uint16_t{0});

    // Initial window at (0, 0), clamped rows and columns.
    for (int dy = 0; dy < k; ++dy) {
      const std::uint16_t* row =
          idx.data() + static_cast<std::size_t>(std::min(dy, h - 1)) * w;
      for (int dx = 0; dx < k; ++dx) add(row[std::min(dx, w - 1)]);
    }

    int x = 0;
    int dir = 1;
    for (int y = 0; y < h; ++y) {
      for (int dy = 0; dy < k; ++dy) {
        rows[static_cast<std::size_t>(dy)] =
            idx.data() + static_cast<std::size_t>(std::min(y + dy, h - 1)) * w;
      }
      if (y > 0) {
        // Move the window down in place: row y-1 leaves, clamp(y+k-1)
        // enters, at the current window columns {clamp(x+d)}.
        const std::uint16_t* leave =
            idx.data() + static_cast<std::size_t>(y - 1) * w;
        const std::uint16_t* enter =
            idx.data() + static_cast<std::size_t>(std::min(y + k - 1, h - 1)) * w;
        for (int d = 0; d < k; ++d) {
          const int col = std::min(x + d, w - 1);
          remove(leave[col]);
          add(enter[col]);
        }
      }
      float* out_row = out.row(y, c).data();
      for (;;) {
        out_row[x] = select();
        if (dir > 0 ? x == w - 1 : x == 0) break;
        if (dir > 0) {
          // Columns {clamp(x+d)} -> {clamp(x+1+d)}: col x leaves,
          // clamp(x+k) enters.
          const int in_col = std::min(x + k, w - 1);
          for (int dy = 0; dy < k; ++dy) {
            remove(rows[static_cast<std::size_t>(dy)][x]);
            add(rows[static_cast<std::size_t>(dy)][in_col]);
          }
          ++x;
        } else {
          const int out_col = std::min(x + k - 1, w - 1);
          for (int dy = 0; dy < k; ++dy) {
            remove(rows[static_cast<std::size_t>(dy)][out_col]);
            add(rows[static_cast<std::size_t>(dy)][x - 1]);
          }
          --x;
        }
      }
      dir = -dir;
    }
  }
}

obs::Counter& median_path_counter(MedianPath path) {
  static obs::Counter& grid8 =
      obs::MetricsRegistry::instance().counter("rank_median/grid8");
  static obs::Counter& grid16 =
      obs::MetricsRegistry::instance().counter("rank_median/grid16");
  static obs::Counter& exact =
      obs::MetricsRegistry::instance().counter("rank_median/exact");
  switch (path) {
    case MedianPath::Grid8:
      return grid8;
    case MedianPath::Grid16:
      return grid16;
    case MedianPath::Exact:
      break;
  }
  return exact;
}

void rank_median(const Image& img, int k, Image& out) {
  // uint16 histogram counts require k*k <= 65535.
  const MedianPath path =
      k <= 255 ? classify_median_path(img) : MedianPath::Exact;
  median_path_counter(path).add();
  switch (path) {
    case MedianPath::Grid8:
      if (k == 3) {
        rank_median3_grid8(img, out);
      } else {
        rank_median_hist8(img, k, out);
      }
      break;
    case MedianPath::Grid16:
      rank_median_hist16(img, k, out);
      break;
    case MedianPath::Exact:
      rank_median_exact(img, k, out);
      break;
  }
}

}  // namespace

MedianPath classify_median_path(const Image& img) {
  // Each block is one branch-free pass of compares, so it vectorizes; the
  // scan stops between blocks once grid16 fails, since grid8 implies
  // grid16 (v integral in [0,255] => v*256 integral in [0,65280]).
  // Integrality is (x + 2^23) - 2^23 == x: for 0 <= x <= 2^23 the add
  // rounds x to an integer and the subtract is exact. Every compare is
  // false for NaN, and a NaN or infinity also fails a range compare, so
  // no value needs an int cast. -0.0 passes as 0.
  constexpr float kRound = 8388608.0f;  // 2^23
  bool grid8 = true;
  const float* data = img.data();
  const std::size_t n = img.size();
  for (std::size_t start = 0; start < n; start += kMedianClassifyBlock) {
    const std::size_t end = std::min(n, start + kMedianClassifyBlock);
    int on16 = 1;  // int, not bool: GCC vectorizes only the int reduction
    int on8 = 1;
    for (std::size_t i = start; i < end; ++i) {
      const float v = data[i];
      const float scaled = v * 256.0f;  // power-of-two scale: exact
      on16 &= (scaled >= 0.0f) & (scaled <= 65535.0f) &
              ((scaled + kRound) - kRound == scaled);
      on8 &= (v <= 255.0f) & ((v + kRound) - kRound == v);
    }
    if (on16 == 0) return MedianPath::Exact;
    grid8 = grid8 && on8 != 0;
  }
  return grid8 ? MedianPath::Grid8 : MedianPath::Grid16;
}

Image rank_filter(const Image& img, int k, RankOp op) {
  DECAM_SPAN("imaging/rank_filter");
  DECAM_REQUIRE(!img.empty(), "rank_filter of empty image");
  DECAM_REQUIRE(k >= 1, "window size must be >= 1");
  if (k == 1) return img;  // 1x1 window: identity for min/median/max
  Image out(img.width(), img.height(), img.channels());
  switch (op) {
    case RankOp::Min:
      rank_min_max(img, k, MinOp{}, out);
      break;
    case RankOp::Max:
      rank_min_max(img, k, MaxOp{}, out);
      break;
    case RankOp::Median:
      rank_median(img, k, out);
      break;
  }
  return out;
}

namespace {

// Horizontal then vertical pass with an arbitrary normalised 1-D kernel.
//
// Accumulator policy (see filter.h): per output sample, taps are multiplied
// and summed in DOUBLE precision in ascending tap order, and the total is
// truncated to float once. Both passes read from edge-padded contiguous
// scanlines (horizontal: an explicit padded copy of the row; vertical: a
// clamped row pointer) and run each tap as one vectorized row sweep
// (simd::ops().tap_accumulate_f32 — float product, double accumulate). Each
// accumulator still receives its taps in ascending offset order starting
// from 0.0, so the arithmetic sequence per pixel is exactly the one the
// original at_clamped formulation produced, keeping this path
// bit-compatible with it on every dispatch variant.
Image separable_convolve(const Image& img, const std::vector<float>& kernel) {
  const int radius = static_cast<int>(kernel.size() / 2);
  const int w = img.width();
  const int h = img.height();
  const int taps = static_cast<int>(kernel.size());
  const simd::SimdOps& ops = simd::ops();

  Image mid(w, h, img.channels());
  std::vector<float> pad(static_cast<std::size_t>(w + 2 * radius));
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      const float* row = img.row(y, c).data();
      std::fill(pad.begin(), pad.begin() + radius, row[0]);
      std::copy(row, row + w, pad.begin() + radius);
      std::fill(pad.begin() + radius + w, pad.end(), row[w - 1]);
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int i = 0; i < taps; ++i) {
        ops.tap_accumulate_f32(acc.data(), pad.data() + i,
                               kernel[static_cast<std::size_t>(i)], w);
      }
      ops.narrow_f64_f32(mid.row(y, c).data(), acc.data(), w);
    }
  }

  Image out(w, h, img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int i = 0; i < taps; ++i) {
        const float* mid_row =
            mid.row(std::clamp(y + i - radius, 0, h - 1), c).data();
        ops.tap_accumulate_f32(acc.data(), mid_row,
                               kernel[static_cast<std::size_t>(i)], w);
      }
      ops.narrow_f64_f32(out.row(y, c).data(), acc.data(), w);
    }
  }
  return out;
}

}  // namespace

Image box_blur(const Image& img, int k) {
  DECAM_SPAN("imaging/box_blur");
  DECAM_REQUIRE(k >= 1 && k % 2 == 1, "box blur needs odd window size");
  if (k == 1) return img;
  // Running-sum box: the window mean is maintained incrementally (add the
  // entering sample, subtract the leaving one), making the cost O(1) per
  // pixel for any k. The double running sum re-associates the addition
  // order relative to the per-window tap sum, so outputs may differ from
  // the dense formulation in the last float ulp (within the documented
  // 1e-6-per-255 tolerance; see filter.h).
  const int radius = (k - 1) / 2;
  const double inv_k = 1.0 / k;
  const int w = img.width();
  const int h = img.height();

  Image mid(w, h, img.channels());
  std::vector<float> pad(static_cast<std::size_t>(w + 2 * radius));
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < h; ++y) {
      const float* row = img.row(y, c).data();
      std::fill(pad.begin(), pad.begin() + radius, row[0]);
      std::copy(row, row + w, pad.begin() + radius);
      std::fill(pad.begin() + radius + w, pad.end(), row[w - 1]);
      float* mid_row = mid.row(y, c).data();
      double sum = 0.0;
      for (int i = 0; i < k; ++i) sum += pad[static_cast<std::size_t>(i)];
      mid_row[0] = static_cast<float>(sum * inv_k);
      for (int x = 1; x < w; ++x) {
        sum += pad[static_cast<std::size_t>(x + k - 1)] -
               pad[static_cast<std::size_t>(x - 1)];
        mid_row[x] = static_cast<float>(sum * inv_k);
      }
    }
  }

  Image out(w, h, img.channels());
  std::vector<double> acc(static_cast<std::size_t>(w));
  auto mid_row = [&](int y, int c) {
    return mid.row(std::clamp(y, 0, h - 1), c).data();
  };
  for (int c = 0; c < img.channels(); ++c) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int i = -radius; i <= radius; ++i) {
      const float* row = mid_row(i, c);
      for (int x = 0; x < w; ++x) acc[static_cast<std::size_t>(x)] += row[x];
    }
    for (int y = 0; y < h; ++y) {
      float* out_row = out.row(y, c).data();
      for (int x = 0; x < w; ++x) {
        out_row[x] =
            static_cast<float>(acc[static_cast<std::size_t>(x)] * inv_k);
      }
      if (y + 1 < h) {
        const float* enter = mid_row(y + 1 + radius, c);
        const float* leave = mid_row(y - radius, c);
        for (int x = 0; x < w; ++x) {
          acc[static_cast<std::size_t>(x)] += static_cast<double>(enter[x]) -
                                              leave[x];
        }
      }
    }
  }
  return out;
}

Image gaussian_blur(const Image& img, double sigma) {
  DECAM_SPAN("imaging/gaussian_blur");
  DECAM_REQUIRE(sigma > 0.0, "sigma must be positive");
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-(i * i) / (2.0 * sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = static_cast<float>(w);
    sum += w;
  }
  for (float& w : kernel) w = static_cast<float>(w / sum);
  return separable_convolve(img, kernel);
}

}  // namespace decam
