// Unit tests for bench/bench_common.h's document layer. The minimal JSON
// reader, focused on the \uXXXX escape support: BMP code points, UTF-8
// encoding widths, surrogate pairs, and strict rejection of malformed
// escapes (truncated hex, lone surrogates) — a malformed bench document
// must fail validation, not round-trip quietly. Then the one entry format
// and the regression comparator on synthetic documents, with no timing
// involved: a uniformly slower host passes, a slower entry fails alone, an
// entry the baseline cannot vouch for fails by name, and an old-schema
// baseline is refused.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using decam::bench::micro::BenchResult;
using decam::bench::micro::Comparison;
using decam::bench::micro::JsonParser;
using decam::bench::micro::JsonValue;
using decam::bench::micro::bench_json;
using decam::bench::micro::compare_to_baseline;
using decam::bench::micro::make_result;
using decam::bench::micro::validate_bench_json;

std::string parse_json_string(const std::string& doc) {
  JsonValue value;
  JsonParser parser(doc);
  EXPECT_TRUE(parser.parse(value)) << doc;
  EXPECT_EQ(value.kind, JsonValue::Kind::String);
  return value.string;
}

bool parse_fails(const std::string& doc) {
  JsonValue value;
  JsonParser parser(doc);
  return !parser.parse(value);
}

TEST(BenchJson, BasicEscapesStillWork) {
  EXPECT_EQ(parse_json_string(R"("a\nb\tc\"d\\e")"), "a\nb\tc\"d\\e");
}

TEST(BenchJson, UnicodeEscapeAscii) {
  EXPECT_EQ(parse_json_string("\"\\u0041z\""), "Az");
  EXPECT_EQ(parse_json_string("\"\\u0061\\u0062\""), "ab");
}

TEST(BenchJson, UnicodeEscapeHexCaseInsensitive) {
  EXPECT_EQ(parse_json_string("\"\\u00e9\""), "\xC3\xA9");
  EXPECT_EQ(parse_json_string("\"\\u00E9\""), "\xC3\xA9");
}

TEST(BenchJson, UnicodeEscapeTwoByteUtf8) {
  // U+00E9 (e acute) and U+03BC (mu).
  EXPECT_EQ(parse_json_string("\"\\u00E9\""), "\xC3\xA9");
  EXPECT_EQ(parse_json_string("\"\\u03BC\""), "\xCE\xBC");
}

TEST(BenchJson, UnicodeEscapeThreeByteUtf8) {
  // U+2014 (em dash).
  EXPECT_EQ(parse_json_string("\"\\u2014\""), "\xE2\x80\x94");
}

TEST(BenchJson, SurrogatePairDecodesToFourByteUtf8) {
  // U+1F600 as the surrogate pair D83D DE00.
  EXPECT_EQ(parse_json_string("\"\\uD83D\\uDE00\""), "\xF0\x9F\x98\x80");
}

TEST(BenchJson, MixedContentAroundEscapes) {
  EXPECT_EQ(parse_json_string("\"ns/px \\u00B5s\""), "ns/px \xC2\xB5s");
}

TEST(BenchJson, RejectsTruncatedHex) {
  EXPECT_TRUE(parse_fails("\"\\u00\""));
  EXPECT_TRUE(parse_fails("\"\\u00G1\""));
}

TEST(BenchJson, RejectsLoneSurrogates) {
  EXPECT_TRUE(parse_fails("\"\\uD83D\""));         // high, nothing after
  EXPECT_TRUE(parse_fails("\"\\uD83Dxy\""));       // high, no \u
  EXPECT_TRUE(parse_fails("\"\\uD83D\\u0041\""));  // high + non-low
  EXPECT_TRUE(parse_fails("\"\\uDE00\""));         // low first
}

TEST(BenchJson, EscapesInsideObjectKeysAndValues) {
  JsonValue value;
  JsonParser parser("{\"na\\u006De\": \"bench\\u2014quick\"}");
  ASSERT_TRUE(parser.parse(value));
  ASSERT_EQ(value.kind, JsonValue::Kind::Object);
  const JsonValue* found = value.find("name");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->string, "bench\xE2\x80\x94quick");
}

// ------------------------------------------------------ entries and gate --

// A synthetic run of three entries: every time is `scale` times the
// reference one, and every anchor `anchor_scale` times 0.05 ms.
std::vector<BenchResult> synthetic_run(double scale = 1.0,
                                       double anchor_scale = 1.0) {
  const double anchor_ms = 0.05 * anchor_scale;
  return {
      make_result("resize/bilinear/down", 110592, 0.10 * scale, 400,
                  anchor_ms),
      make_result("rank/min/k2", 110592, 0.30 * scale, 130, anchor_ms),
      make_result("spectrum/bluestein", 201601, 4.0 * scale, 10, anchor_ms),
  };
}

Comparison judge(const std::vector<BenchResult>& run,
                 const std::vector<BenchResult>& baseline) {
  return compare_to_baseline(run, bench_json(baseline, true),
                             validate_bench_json, 2.0);
}

bool mentions(const std::string& line, const std::string& word) {
  return line.find(word) != std::string::npos;
}

TEST(BenchEntries, DocumentRoundTripsThroughTheValidator) {
  const std::string doc = bench_json(synthetic_run(), true);
  EXPECT_EQ(validate_bench_json(doc), "") << doc;
  EXPECT_TRUE(mentions(doc, "\"anchor\": \"loop\""));
  EXPECT_TRUE(mentions(doc, "\"ratio\": 6.000000")) << doc;  // 0.30 / 0.05
}

TEST(BenchEntries, ValidatorRejectsADuplicateOrAnEntryWithoutAnchor) {
  std::vector<BenchResult> run = synthetic_run();
  run.push_back(run.front());
  EXPECT_TRUE(mentions(validate_bench_json(bench_json(run, true)),
                       "appears twice"));
  std::string doc = bench_json(synthetic_run(), true);
  const std::string needle = "\"anchor\": \"loop\", ";
  doc.erase(doc.find(needle), needle.size());
  EXPECT_TRUE(mentions(validate_bench_json(doc), "without an anchor"));
}

TEST(BenchGate, EverythingTwoAndAHalfTimesSlowerIsNoRegression) {
  // Every entry and the anchor 2.5x slower: a slow host, not a slow kernel.
  const Comparison c = judge(synthetic_run(2.5, 2.5), synthetic_run());
  EXPECT_EQ(c.refused, "");
  EXPECT_TRUE(c.failed.empty());
  EXPECT_EQ(c.compared, 3);
}

TEST(BenchGate, OneEntryAtTwoAndAHalfTimesItsRatioIsTheOnlyFailure) {
  std::vector<BenchResult> run = synthetic_run();
  run[1] = make_result("rank/min/k2", 110592, 0.30 * 2.5, 130, 0.05);
  const Comparison c = judge(run, synthetic_run());
  EXPECT_EQ(c.failed, std::vector<std::string>{"rank/min/k2"});
  EXPECT_EQ(c.compared, 3);
  ASSERT_EQ(c.lines.size(), 1u);
  // The line shows both ratios and both anchors.
  EXPECT_TRUE(mentions(c.lines[0], "rank/min/k2"));
  EXPECT_TRUE(mentions(c.lines[0], "6.000 ->   15.000 (2.50x)")) << c.lines[0];
  EXPECT_TRUE(mentions(c.lines[0], "loop 0.0500 -> 0.0500 ms")) << c.lines[0];
  EXPECT_TRUE(mentions(c.lines[0], "REGRESSION"));
}

TEST(BenchGate, EntryMissingFromTheBaselineFailsByName) {
  std::vector<BenchResult> baseline = synthetic_run();
  baseline.pop_back();
  const Comparison c = judge(synthetic_run(), baseline);
  EXPECT_EQ(c.failed, std::vector<std::string>{"spectrum/bluestein"});
  ASSERT_EQ(c.lines.size(), 1u);
  EXPECT_TRUE(mentions(c.lines[0], "spectrum/bluestein"));
  EXPECT_TRUE(mentions(c.lines[0], "not in the baseline"));
  EXPECT_EQ(c.compared, 2);
}

TEST(BenchGate, EntryAtAnotherPixelCountFailsByName) {
  std::vector<BenchResult> baseline = synthetic_run();
  baseline[2] = make_result("spectrum/bluestein", 202500, 4.0, 10, 0.05);
  const Comparison c = judge(synthetic_run(), baseline);
  EXPECT_EQ(c.failed, std::vector<std::string>{"spectrum/bluestein"});
  ASSERT_EQ(c.lines.size(), 1u);
  EXPECT_TRUE(mentions(c.lines[0], "spectrum/bluestein"));
  EXPECT_TRUE(mentions(c.lines[0], "201601")) << c.lines[0];
  EXPECT_TRUE(mentions(c.lines[0], "202500")) << c.lines[0];
}

TEST(BenchGate, EntryOnAnotherAnchorFailsByName) {
  std::vector<BenchResult> baseline = synthetic_run();
  baseline[0].anchor = "histogram/record";
  const Comparison c = judge(synthetic_run(), baseline);
  EXPECT_EQ(c.failed, std::vector<std::string>{"resize/bilinear/down"});
}

TEST(BenchGate, BaselineEntriesAFilteredRunLacksAreNotJudged) {
  std::vector<BenchResult> run = synthetic_run();
  run.erase(run.begin());
  const Comparison c = judge(run, synthetic_run());
  EXPECT_TRUE(c.failed.empty());
  EXPECT_EQ(c.compared, 2);
}

TEST(BenchGate, OldSchemaBaselineIsRefused) {
  // The v1 schema held absolute ns/px and no anchor.
  const std::string v1 =
      R"({"schema": "decam-kernel-bench-v1", "quick": false, "benchmarks": )"
      R"([{"name": "rank/min/k2", "pixels": 110592, "ms_per_iter": 0.3, )"
      R"("ns_per_pixel": 2.7, "mpix_per_s": 368.6, "iters": 130}]})";
  const Comparison c =
      compare_to_baseline(synthetic_run(), v1, validate_bench_json, 2.0);
  EXPECT_TRUE(mentions(c.refused, "decam-kernel-bench-v1")) << c.refused;
  EXPECT_EQ(c.compared, 0);

  // The gate's exit status: a refused baseline fails it.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "decam_bench_gate_v1.json";
  std::ofstream(path) << v1;
  EXPECT_EQ(decam::bench::micro::check_regressions("test", synthetic_run(),
                                                   path.string()),
            1);
  std::filesystem::remove(path);
}

}  // namespace
