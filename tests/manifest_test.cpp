// Per-run manifest sidecars (bench/bench_common.h, schema
// `decam-run-manifest-v1`): serialisation, schema validation, tamper
// rejection, and the default path convention. Also the paper driver's flag
// parsing: what --quick and --n record, and who picks the image count.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"

namespace decam::bench::manifest {
namespace {

RunManifest sample_manifest() {
  RunManifest m;
  m.binary = "manifest_test";
  m.argv = {"--quick", "--out", "BENCH_x.json"};
  m.quick = true;
  m.seed = 42;
  m.image_width = 96;
  m.image_height = 96;
  m.threads = 2;
  return m;
}

TEST(ManifestTest, SerialisedManifestValidates) {
  const std::string doc = manifest_json(sample_manifest());
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
}

TEST(ManifestTest, DocumentCarriesRunAndBuildFields) {
  const std::string doc = manifest_json(sample_manifest());
  EXPECT_NE(doc.find("\"schema\": \"decam-run-manifest-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"binary\": \"manifest_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(doc.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"type\": \""), std::string::npos);
  EXPECT_NE(doc.find("\"sanitize\": \""), std::string::npos);
  // The host next to the pool size: a one-CPU host and DECAM_THREADS=1
  // read apart.
  EXPECT_NE(doc.find("\"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency())),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"cpu\": \""), std::string::npos) << doc;
}

TEST(ManifestTest, MetricSnapshotIsEmbedded) {
  obs::MetricsRegistry::instance().counter("manifest_test/hits").add(9);
  obs::MetricsRegistry::instance().histogram("manifest_test/lat").record(1.5);
  const std::string doc = manifest_json(sample_manifest());
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
  EXPECT_NE(doc.find("\"name\": \"manifest_test/hits\", \"value\": 9"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"name\": \"manifest_test/lat\""), std::string::npos)
      << doc;
}

TEST(ManifestTest, ZeroThreadsResolvesToRuntimeCount) {
  RunManifest m = sample_manifest();
  m.threads = 0;  // "resolve at serialisation time"
  const std::string doc = manifest_json(m);
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
  EXPECT_EQ(doc.find("\"threads\": 0"), std::string::npos) << doc;
}

TEST(ManifestTest, ArgvStringsAreEscaped) {
  RunManifest m = sample_manifest();
  m.argv = {"--filter", "a\"b\\c"};
  const std::string doc = manifest_json(m);
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
  EXPECT_NE(doc.find("a\\\"b\\\\c"), std::string::npos) << doc;
}

TEST(ManifestTest, TamperedDocumentsAreRejected) {
  EXPECT_NE(validate_manifest_json("not json"), "");
  EXPECT_NE(validate_manifest_json("[]"), "");
  EXPECT_NE(validate_manifest_json(
                "{\"schema\": \"decam-run-manifest-v2\"}"),
            "");
  // Structurally valid JSON missing required sections.
  const std::string no_build =
      "{\"schema\": \"decam-run-manifest-v1\", \"binary\": \"x\", "
      "\"argv\": []}";
  EXPECT_NE(validate_manifest_json(no_build), "");
  // threads must be a positive number.
  std::string doc = manifest_json(sample_manifest());
  const std::string needle = "\"threads\": 2";
  doc.replace(doc.find(needle), needle.size(), "\"threads\": 0");
  EXPECT_NE(validate_manifest_json(doc), "");
  // The host fields are required: a CPU model, a thread count >= 0.
  const std::string fresh = manifest_json(sample_manifest());
  const std::size_t cpu = fresh.find("\"cpu\": ");
  ASSERT_NE(cpu, std::string::npos);
  std::string no_cpu = fresh;
  no_cpu.replace(cpu, 5, "\"cpv");
  EXPECT_NE(validate_manifest_json(no_cpu), "");
  std::string empty_cpu = fresh;
  empty_cpu.replace(cpu, fresh.find('"', cpu + 8) - cpu + 1, "\"cpu\": \"\"");
  EXPECT_NE(validate_manifest_json(empty_cpu), "") << empty_cpu;
  std::string negative = fresh;
  const std::size_t hw = negative.find("\"hardware_threads\": ");
  ASSERT_NE(hw, std::string::npos);
  negative.insert(hw + std::string("\"hardware_threads\": ").size(), "-");
  EXPECT_NE(validate_manifest_json(negative), "") << negative;
}

TEST(ManifestTest, DefaultPathUsesBinaryBasename) {
  EXPECT_EQ(default_manifest_path("/a/b/kernel_bench"),
            "MANIFEST_kernel_bench.json");
  EXPECT_EQ(default_manifest_path("table7"), "MANIFEST_table7.json");
}

TEST(ManifestTest, WriteManifestRoundTripsThroughDisk) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "decam_manifest_test.json";
  ASSERT_TRUE(write_manifest(sample_manifest(), path.string()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(validate_manifest_json(content.str()), "");
  std::filesystem::remove(path);
}

// parse_args over `words`, the first being the command name.
BenchArgs parse(std::vector<std::string> words) {
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgsTest, ExplicitCountIsNotQuick) {
  const BenchArgs args = parse({"extension_runtime_attack", "--n", "12"});
  EXPECT_FALSE(args.quick);
  ASSERT_TRUE(args.n.has_value());
  EXPECT_EQ(*args.n, 12);
  EXPECT_EQ(args.config.target_width, 96);  // the standard geometry
  EXPECT_EQ(with_default_count(args, 24).config.n_train, 12);
}

TEST(BenchArgsTest, QuickIsQuick) {
  const BenchArgs args = parse({"table8_ensemble", "--quick"});
  EXPECT_TRUE(args.quick);
  EXPECT_FALSE(args.n.has_value());
  EXPECT_EQ(args.config.target_width, 32);
  EXPECT_EQ(with_default_count(args, 24).config.n_train, kQuickImages);
  EXPECT_EQ(args.config.n_eval, kQuickImages);
}

TEST(BenchArgsTest, WithoutNTheCommandPicksTheCount) {
  const BenchArgs args = parse({"ablation_filters"});
  EXPECT_FALSE(args.n.has_value());
  EXPECT_FALSE(args.quick);
  const BenchArgs filters = with_default_count(args, 24);
  EXPECT_EQ(filters.config.n_train, 24);
  EXPECT_EQ(filters.config.n_eval, kStandardImages);
  // An explicit count equal to the standard split is still honoured.
  EXPECT_EQ(
      with_default_count(parse({"ablation_filters", "--n", "50"}), 24)
          .config.n_train,
      50);
}

TEST(BenchArgsTest, ManifestPathFollowsTheCommand) {
  EXPECT_EQ(parse({"fig12_csp_dist"}).manifest_path,
            "MANIFEST_fig12_csp_dist.json");
  EXPECT_EQ(parse({"all", "--manifest", "m.json"}).manifest_path, "m.json");
  EXPECT_EQ(parse({"all", "--no-manifest"}).manifest_path, "");
}

}  // namespace
}  // namespace decam::bench::manifest
