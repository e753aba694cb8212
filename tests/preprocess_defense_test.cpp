// Property tests for the preprocessing-defense family (ISSUE 10 satellite):
// the algebraic contracts the matrix bench and `decamctl scan --defense`
// lean on. Shape preservation, squeeze integrality + exact idempotence
// (every bit count, including the awkward non-power-step ones), bounded
// output range, the spec grammar round-trip, DefendedDetector naming and
// score semantics, and bit-identical defended scores across thread counts.
#include "core/preprocess_defense.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace decam::core {
namespace {

Image noisy_image(int w, int h, int channels, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, channels);
  for (int c = 0; c < channels; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  return img;
}

bool bit_identical(const Image& a, const Image& b) {
  if (!a.same_shape(b)) return false;
  for (int c = 0; c < a.channels(); ++c) {
    if (std::memcmp(a.plane(c).data(), b.plane(c).data(),
                    a.plane_size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

const std::vector<std::string> kSpecs = {"squeeze1", "squeeze4", "squeeze7",
                                         "median3",  "gauss0.8", "jpeg75",
                                         "squeeze4+jpeg75"};

TEST(PreprocessDefense, EveryTransformPreservesShape) {
  const Image img = noisy_image(37, 23, 3, 1);
  for (const std::string& spec : kSpecs) {
    const Image out = DefenseChain::parse(spec).apply(img);
    EXPECT_TRUE(out.same_shape(img)) << spec;
  }
}

TEST(PreprocessDefense, EveryTransformStaysInRange) {
  // Out-of-range inputs must come back clamped into [0, 255] too: defenses
  // sit directly in front of detectors that assume 8-bit-range pixels.
  Image img = noisy_image(21, 19, 1, 2);
  img.at(3, 4, 0) = -40.0f;
  img.at(5, 6, 0) = 300.0f;
  for (const std::string& spec : kSpecs) {
    const Image out = DefenseChain::parse(spec).apply(img);
    for (const float v : out.plane(0)) {
      ASSERT_GE(v, 0.0f) << spec;
      ASSERT_LE(v, 255.0f) << spec;
    }
  }
}

TEST(PreprocessDefense, SqueezeOutputIsIntegralAtEveryBitCount) {
  const Image img = noisy_image(16, 16, 3, 3);
  for (int bits = 1; bits <= 8; ++bits) {
    const Image out = bit_depth_squeeze(img, bits);
    int distinct = 0;
    std::vector<bool> seen(256, false);
    for (int c = 0; c < 3; ++c) {
      for (const float v : out.plane(c)) {
        ASSERT_EQ(v, std::round(v)) << "bits=" << bits;
        const int iv = static_cast<int>(v);
        ASSERT_GE(iv, 0);
        ASSERT_LE(iv, 255);
        if (!seen[static_cast<std::size_t>(iv)]) {
          seen[static_cast<std::size_t>(iv)] = true;
          ++distinct;
        }
      }
    }
    EXPECT_LE(distinct, 1 << bits) << "bits=" << bits;
  }
}

TEST(PreprocessDefense, SqueezeIsExactlyIdempotent) {
  // The non-power-of-two steps (bits 3, 5, 6, 7 have step 255/(2^b - 1)
  // non-integral) are where a naive re-quantisation would drift.
  const Image img = noisy_image(24, 18, 3, 4);
  for (int bits = 1; bits <= 8; ++bits) {
    const Image once = bit_depth_squeeze(img, bits);
    const Image twice = bit_depth_squeeze(once, bits);
    EXPECT_TRUE(bit_identical(once, twice)) << "bits=" << bits;
  }
}

TEST(PreprocessDefense, SqueezeEightBitsFixesIntegralImages) {
  Image img = noisy_image(12, 12, 1, 5);
  for (float& v : img.plane(0)) v = std::round(v);
  EXPECT_TRUE(bit_identical(img, bit_depth_squeeze(img, 8)));
}

TEST(PreprocessDefense, SqueezeRejectsBadBitCounts) {
  const Image img = noisy_image(4, 4, 1, 6);
  EXPECT_THROW(bit_depth_squeeze(img, 0), std::invalid_argument);
  EXPECT_THROW(bit_depth_squeeze(img, 9), std::invalid_argument);
}

TEST(PreprocessDefense, SpecGrammarRoundTrips) {
  for (const char* spec :
       {"none", "squeeze4", "median3", "gauss0.8", "jpeg75",
        "squeeze4+jpeg75", "median5+gauss1.5+jpeg90", "gauss0.00001"}) {
    const DefenseChain chain = DefenseChain::parse(spec);
    EXPECT_EQ(chain.name(), spec);
    // The canonical name parses back to an identically-behaving chain.
    const DefenseChain again = DefenseChain::parse(chain.name());
    EXPECT_EQ(again.name(), chain.name());
    EXPECT_EQ(again.steps().size(), chain.steps().size());
  }
  EXPECT_TRUE(DefenseChain::parse("none").empty());
}

TEST(PreprocessDefense, SpecGrammarRejectsGarbage) {
  for (const char* spec :
       {"", "pixmask", "squeeze", "squeeze0", "squeeze9", "squeeze4x",
        "median2.5", "median17", "gauss0", "gauss-1", "jpeg0", "jpeg101",
        "squeeze4+", "+jpeg75", "none+jpeg75", "jpeg75 ", "median1e300",
        "squeezeinf", "jpegnan", "median-inf",
        // Parameters are plain decimals: no whitespace, hex, fraction of
        // an integer kind, or exponent.
        "median 3", "median\t3", "median0x3", "median3.0", "squeeze4e0",
        "jpeg7.5e1", "gauss 0.8", "gauss0x1p-1"}) {
    EXPECT_THROW(DefenseChain::parse(spec), std::invalid_argument)
        << "spec '" << spec << "'";
  }
}

TEST(PreprocessDefense, EmptyChainIsIdentity) {
  const Image img = noisy_image(9, 7, 3, 7);
  EXPECT_TRUE(bit_identical(img, DefenseChain().apply(img)));
  EXPECT_EQ(DefenseChain().name(), "none");
}

TEST(PreprocessDefense, DefendedDetectorScoresThroughTheChain) {
  const Image img = noisy_image(64, 64, 3, 8);
  ScalingDetectorConfig config;
  config.down_width = config.down_height = 16;
  const auto inner = std::make_shared<ScalingDetector>(config);
  const DefenseChain chain = DefenseChain::parse("squeeze3");
  const DefendedDetector defended(inner, chain);

  EXPECT_EQ(defended.name(), "squeeze3>" + inner->name());
  EXPECT_DOUBLE_EQ(defended.score(img), inner->score(chain.apply(img)));

  // Scoring through a context must recompute from the raw input — a
  // context's cached intermediates describe the UNdefended image.
  AnalysisContextSpec raw_spec;
  inner->prime(raw_spec);
  AnalysisContext context(img, raw_spec);
  EXPECT_DOUBLE_EQ(defended.score(context), defended.score(img));
}

TEST(PreprocessDefense, EmptyChainDefendedDetectorMatchesInner) {
  const Image img = noisy_image(48, 48, 1, 9);
  FilteringDetectorConfig config;
  const auto inner = std::make_shared<FilteringDetector>(config);
  const DefendedDetector defended(inner, DefenseChain());
  EXPECT_EQ(defended.name(), "none>" + inner->name());
  EXPECT_DOUBLE_EQ(defended.score(img), inner->score(img));
}

// The battery_determinism ctest pins the defended decamctl scan end to end;
// this is the unit-level version: chain application and defended scores are
// bit-identical whether the surrounding fan-out runs 1 lane or 4.
TEST(PreprocessDefense, DefendedScoresBitIdenticalAcrossThreadCounts) {
  std::vector<Image> images;
  for (int i = 0; i < 6; ++i) images.push_back(noisy_image(40, 40, 3, 10 + i));

  ScalingDetectorConfig config;
  config.down_width = config.down_height = 10;
  const auto inner = std::make_shared<ScalingDetector>(config);

  auto run = [&](int threads) {
    runtime::set_thread_count(threads);
    std::vector<std::vector<double>> per_spec;
    for (const std::string& spec : kSpecs) {
      const DefendedDetector defended(inner, DefenseChain::parse(spec));
      per_spec.push_back(runtime::parallel_map(
          images, [&](const Image& img) { return defended.score(img); }));
    }
    return per_spec;
  };

  const auto one = run(1);
  const auto four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      // Bitwise, not approximate: the determinism contract is exactness.
      EXPECT_EQ(one[s][i], four[s][i]) << kSpecs[s] << " image " << i;
    }
  }
}

}  // namespace
}  // namespace decam::core
