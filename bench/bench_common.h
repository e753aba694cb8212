// Shared scaffolding for the paper driver (bench/paper.cpp) and the micro
// benches.
//
// The table and figure commands run the same two-stage experiment through
// core::run_experiment (cached on disk, so the first command of a `paper
// all` sweep pays the dataset/attack generation cost and the rest reuse
// it), then print their table or figure from the cached scores. The
// ablations and extensions craft their own images from the same flags.
//
// Flags (all optional):
//   --n <count>      images per class (default: the command's own count,
//                    50 per split for the tables and figures)
//   --seed <u64>     dataset seed (default 42)
//   --quick          miniature run (12 images, small scenes) for smoke
//                    tests; an explicit --n still sets the count
//   --no-cache       recompute instead of using the score cache
//   --threads <N>    worker-pool size (default: DECAM_THREADS env or
//                    hardware concurrency); scores are bit-identical at
//                    any thread count
//   --manifest <F>   per-run manifest destination (default
//                    MANIFEST_<command>.json in the cwd)
//   --no-manifest    suppress the manifest sidecar
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/calibration.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

// Build provenance baked in by bench/CMakeLists.txt so manifests can tell
// apart numbers from different build flavours; "unknown" when a bench is
// compiled outside that harness.
#ifndef DECAM_BENCH_BUILD_TYPE
#define DECAM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DECAM_BENCH_SANITIZE
#define DECAM_BENCH_SANITIZE "unknown"
#endif

namespace decam::bench {

// -------------------------------------------------------------- manifest --
// Per-run provenance sidecar (schema `decam-run-manifest-v1`): which binary
// produced a BENCH_*.json point, with what arguments, thread count, build
// flavour, and final metric snapshot — so perf numbers stay comparable
// across PRs and machines. The paper driver writes one after its command
// returns (--manifest FILE overrides the destination, --no-manifest
// suppresses it); micro benches write one next to their --json output.
// Definitions live at the end of this header, after the JSON utilities
// they reuse.

namespace manifest {

struct RunManifest {
  std::string binary;              // argv[0] basename
  std::vector<std::string> argv;   // arguments after the binary name
  bool quick = false;
  std::uint64_t seed = 0;
  int image_width = 0;             // primary work geometry of the run
  int image_height = 0;
  int threads = 0;                 // 0 = resolve at serialisation time
};

/// Serialises `m` plus the current MetricsRegistry snapshot as one
/// `decam-run-manifest-v1` document.
inline std::string manifest_json(const RunManifest& m);

/// Validates a manifest document; empty string on success, else the first
/// violation.
inline std::string validate_manifest_json(std::string_view text);

/// manifest_json -> file; returns false (with a stderr note) on I/O error.
inline bool write_manifest(const RunManifest& m, const std::string& path);

/// "MANIFEST_<binary basename>.json"
inline std::string default_manifest_path(const char* argv0);

}  // namespace manifest

/// Images per class per split of the standard experiment, and of --quick.
inline constexpr int kStandardImages = 50;
inline constexpr int kQuickImages = 12;

struct BenchArgs {
  core::ExperimentConfig config;
  bool use_cache = true;
  bool quick = false;           // --quick given
  std::optional<int> n;         // --n given; else the command picks
  std::string manifest_path;    // empty after --no-manifest
};

/// Parses the paper flags. `argv[0]` is the command name: it names the
/// default manifest. Exits 2 on an unknown flag.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  args.config.target_width = 96;
  args.config.target_height = 96;
  args.config.min_side = 256;
  args.config.max_side = 512;
  args.config.seed = 42;
  args.manifest_path = manifest::default_manifest_path(argv[0]);
  bool want_manifest = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      args.n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.config.target_width = args.config.target_height = 32;
      args.config.min_side = 128;
      args.config.max_side = 192;
      args.quick = true;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      args.use_cache = false;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int threads = std::atoi(argv[++i]);
      if (threads < 1) {
        std::fprintf(stderr, "--threads wants a positive integer\n");
        std::exit(2);
      }
      runtime::set_thread_count(threads);
    } else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      args.manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-manifest") == 0) {
      want_manifest = false;
    } else {
      std::fprintf(stderr,
                   "usage: paper %s [--n N] [--seed S] [--quick] "
                   "[--no-cache] [--threads N] [--manifest F] "
                   "[--no-manifest]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  args.config.n_train = args.config.n_eval =
      args.n.value_or(args.quick ? kQuickImages : kStandardImages);
  if (!want_manifest) args.manifest_path.clear();
  return args;
}

/// `args` for a command whose own default is `default_n` training images:
/// it applies only when neither --n nor --quick chose the count.
inline BenchArgs with_default_count(BenchArgs args, int default_n) {
  if (!args.n && !args.quick) args.config.n_train = default_n;
  return args;
}

inline core::ExperimentData load_data(const BenchArgs& args) {
  return core::run_experiment(
      args.config,
      args.use_cache ? core::default_cache_dir() : std::filesystem::path{});
}

/// The line under a command's banner: the experiment configuration.
inline void print_config(const BenchArgs& args) {
  std::printf(
      "config: n_train=%d n_eval=%d scenes=%d-%dpx target=%dx%d "
      "pipeline=%s eps=%.1f seed=%llu\n\n",
      args.config.n_train, args.config.n_eval, args.config.min_side,
      args.config.max_side, args.config.target_width,
      args.config.target_height, to_string(args.config.white_box_algo),
      args.config.attack_eps,
      static_cast<unsigned long long>(args.config.seed));
}

}  // namespace decam::bench

// ---------------------------------------------------------------------------
// Micro-benchmark scaffolding (bench/kernel_bench, obs_overhead,
// matrix_adaptive and `paper extension_runtime_attack`).
//
// Each benchmark is a closure timed with steady_clock over enough iterations
// to fill a small time budget; the *minimum* iteration time is reported (the
// usual micro-bench convention: the minimum is the run least disturbed by
// the OS). Results normalise to ns/pixel and MP/s over a caller-declared
// pixel count so numbers are comparable across image geometries, and can be
// serialised to a stable JSON document (schema `decam-kernel-bench-v1`)
// that downstream tooling validates with validate_bench_json().
// ---------------------------------------------------------------------------

namespace decam::bench::micro {

struct BenchResult {
  std::string name;
  std::size_t pixels = 0;   // work size the timings normalise over
  double ms_per_iter = 0.0; // minimum observed iteration time
  double ns_per_pixel = 0.0;
  double mpix_per_s = 0.0;
  int iters = 0;
};

/// Times `fn` until `budget_ms` of measured work has accumulated (at least
/// `min_iters` runs), returning the minimum-iteration normalisation.
inline BenchResult run_bench(const std::string& name, std::size_t pixels,
                             double budget_ms, const std::function<void()>& fn,
                             int min_iters = 3) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: first-touch allocations, table caches, branch training
  BenchResult result;
  result.name = name;
  result.pixels = pixels;
  double total_ms = 0.0;
  double best_ms = std::numeric_limits<double>::infinity();
  int iters = 0;
  while (iters < min_iters || total_ms < budget_ms) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best_ms = std::min(best_ms, ms);
    total_ms += ms;
    ++iters;
    if (iters >= 1000) break;  // fast kernels: enough samples
  }
  result.ms_per_iter = best_ms;
  result.iters = iters;
  const double ns = best_ms * 1e6;
  result.ns_per_pixel = ns / static_cast<double>(pixels);
  result.mpix_per_s =
      static_cast<double>(pixels) / (best_ms * 1e-3) / 1e6;
  return result;
}

inline void print_result(const BenchResult& r) {
  std::printf("%-34s %10.3f ms  %8.3f ns/px  %9.1f MP/s  (x%d)\n",
              r.name.c_str(), r.ms_per_iter, r.ns_per_pixel, r.mpix_per_s,
              r.iters);
}

/// Serialises results as the `decam-kernel-bench-v1` JSON document.
inline std::string bench_json(const std::vector<BenchResult>& results,
                              bool quick) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"decam-kernel-bench-v1\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"pixels\": %zu, "
                  "\"ms_per_iter\": %.6f, \"ns_per_pixel\": %.6f, "
                  "\"mpix_per_s\": %.3f, \"iters\": %d}%s\n",
                  r.name.c_str(), r.pixels, r.ms_per_iter, r.ns_per_pixel,
                  r.mpix_per_s, r.iters,
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  return out.str();
}

// ------------------------------------------------------------------ JSON --
// Minimal JSON reader for schema validation: parses objects/arrays/strings/
// numbers/bools into a tiny DOM, including \uXXXX escapes (with surrogate
// pairs, decoded to UTF-8). Not a general-purpose parser (no nesting
// limits) — just enough to hold the bench document to account.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::Kind::Null;
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }
  // Four hex digits -> code unit; false on malformed input.
  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      unsigned digit = 0;
      if (h >= '0' && h <= '9') {
        digit = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<unsigned>(h - 'a') + 10;
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<unsigned>(h - 'A') + 10;
      } else {
        return false;
      }
      out = out * 16 + digit;
    }
    return true;
  }
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }
  // \uXXXX after the backslash+u have been consumed. A high surrogate must
  // be followed by `\uDC00..\uDFFF`; the pair decodes to one code point.
  // An unpaired surrogate is malformed (strict, like the number grammar).
  bool parse_unicode_escape(std::string& out) {
    unsigned unit = 0;
    if (!parse_hex4(unit)) return false;
    if (unit >= 0xD800 && unit <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return false;
      }
      pos_ += 2;
      unsigned low = 0;
      if (!parse_hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return false;
      append_utf8(out,
                  0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00));
      return true;
    }
    if (unit >= 0xDC00 && unit <= 0xDFFF) return false;  // lone low surrogate
    append_utf8(out, unit);
    return true;
  }
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (!parse_unicode_escape(out)) return false;
            continue;
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    return consume('"');
  }
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = JsonValue::Kind::Number;
    out.number = std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
    return true;
  }
  bool parse_array(JsonValue& out) {
    if (!consume('[')) return false;
    out.kind = JsonValue::Kind::Array;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!parse_value(item)) return false;
      out.array.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
  bool parse_object(JsonValue& out) {
    if (!consume('{')) return false;
    out.kind = JsonValue::Kind::Object;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Validates a `decam-kernel-bench-v1` document: schema marker, non-empty
/// benchmark array, and per-entry name/pixels/throughput sanity. Returns an
/// empty string on success, else a description of the first violation.
inline std::string validate_bench_json(std::string_view text) {
  JsonValue root;
  if (!JsonParser(text).parse(root)) return "not parseable as JSON";
  if (root.kind != JsonValue::Kind::Object) return "root is not an object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String ||
      schema->string != "decam-kernel-bench-v1") {
    return "missing/wrong schema marker";
  }
  const JsonValue* quick = root.find("quick");
  if (quick == nullptr || quick->kind != JsonValue::Kind::Bool) {
    return "missing boolean 'quick'";
  }
  const JsonValue* benches = root.find("benchmarks");
  if (benches == nullptr || benches->kind != JsonValue::Kind::Array) {
    return "missing 'benchmarks' array";
  }
  if (benches->array.empty()) return "'benchmarks' is empty";
  for (const JsonValue& b : benches->array) {
    if (b.kind != JsonValue::Kind::Object) return "benchmark not an object";
    const JsonValue* name = b.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::String ||
        name->string.empty()) {
      return "benchmark without a name";
    }
    for (const char* key : {"pixels", "ms_per_iter", "ns_per_pixel",
                            "mpix_per_s", "iters"}) {
      const JsonValue* v = b.find(key);
      if (v == nullptr || v->kind != JsonValue::Kind::Number ||
          !(v->number > 0.0)) {
        return "benchmark '" + name->string + "': non-positive " + key;
      }
    }
  }
  return {};
}

/// Schema-checks a `decam-kernel-bench-v1` file; 0 on success. `label` is
/// the reporting prefix (the bench binary's name).
inline int validate_file(const std::string& label, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open %s\n", label.c_str(), path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string error = validate_bench_json(text.str());
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s: %s\n", label.c_str(), path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: valid decam-kernel-bench-v1 document\n", path.c_str());
  return 0;
}

/// Compares freshly measured `results` against the baseline document at
/// `path`, failing any entry more than `factor`x slower in ns/pixel. The
/// baseline must pass `validate` (a schema whose "benchmarks" array holds
/// named entries with "ns_per_pixel"). Only names present in both runs are
/// compared (baselines may gain entries a binary no longer produces, and
/// vice versa). Returns the number of regressions (or 1 on an
/// unreadable/invalid baseline). The factor is a tripwire for accidental
/// algorithmic regressions, not a noise gate.
inline int check_regressions(
    const std::string& label, const std::vector<BenchResult>& results,
    const std::string& path,
    std::string (*validate)(std::string_view) = validate_bench_json,
    double factor = 2.0) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open baseline %s\n", label.c_str(),
                 path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string error = validate(text.str());
  if (!error.empty()) {
    std::fprintf(stderr, "%s: baseline %s: %s\n", label.c_str(), path.c_str(),
                 error.c_str());
    return 1;
  }
  JsonValue root;
  JsonParser(text.str()).parse(root);  // validated above
  const JsonValue& baseline = *root.find("benchmarks");

  std::printf("\nregression check vs %s (fail above %.1fx ns/px):\n",
              path.c_str(), factor);
  int regressions = 0;
  int compared = 0;
  for (const BenchResult& r : results) {
    const JsonValue* entry = nullptr;
    for (const JsonValue& b : baseline.array) {
      if (b.find("name")->string == r.name) {
        entry = &b;
        break;
      }
    }
    if (entry == nullptr) continue;
    ++compared;
    const double base_ns = entry->find("ns_per_pixel")->number;
    const double ratio = r.ns_per_pixel / base_ns;
    const bool bad = ratio > factor;
    if (bad || ratio > 1.25) {
      std::printf("  %-34s %8.3f -> %8.3f ns/px  (%.2fx)%s\n", r.name.c_str(),
                  base_ns, r.ns_per_pixel, ratio, bad ? "  REGRESSION" : "");
    }
    regressions += bad ? 1 : 0;
  }
  std::printf("  %d/%zu benchmarks compared, %d regression%s\n", compared,
              results.size(), regressions, regressions == 1 ? "" : "s");
  return regressions;
}

}  // namespace decam::bench::micro

// ----------------------------------------------------- manifest definitions
// Declared at the top of the header, defined here where the micro JSON
// utilities exist.

namespace decam::bench::manifest {

namespace detail {

inline std::string json_escape(const std::string& text) {
  return obs::json_escape(text);
}

}  // namespace detail

inline std::string default_manifest_path(const char* argv0) {
  const std::string path = argv0;
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return "MANIFEST_" + base + ".json";
}

inline std::string manifest_json(const RunManifest& m) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"decam-run-manifest-v1\",\n";
  out << "  \"binary\": \"" << detail::json_escape(m.binary) << "\",\n";
  out << "  \"argv\": [";
  for (std::size_t i = 0; i < m.argv.size(); ++i) {
    out << (i > 0 ? ", " : "") << '"' << detail::json_escape(m.argv[i])
        << '"';
  }
  out << "],\n";
  out << "  \"build\": {\"type\": \"" DECAM_BENCH_BUILD_TYPE
         "\", \"sanitize\": \"" DECAM_BENCH_SANITIZE
         "\", \"compiler\": \""
      << detail::json_escape(__VERSION__) << "\"},\n";
  const int threads = m.threads > 0 ? m.threads : runtime::thread_count();
  char run_buf[256];
  std::snprintf(run_buf, sizeof(run_buf),
                "  \"run\": {\"threads\": %d, \"quick\": %s, \"seed\": %llu, "
                "\"image_width\": %d, \"image_height\": %d},\n",
                threads, m.quick ? "true" : "false",
                static_cast<unsigned long long>(m.seed), m.image_width,
                m.image_height);
  out << run_buf;

  // Final metric snapshot: every counter and gauge, plus latency summaries
  // of every histogram. Downstream diffing tools read cache hit rates and
  // stage costs straight from the sidecar instead of re-running the bench.
  auto& registry = obs::MetricsRegistry::instance();
  out << "  \"metrics\": {\n    \"counters\": [";
  {
    const auto counters = registry.counter_values();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      out << (i > 0 ? ", " : "") << "{\"name\": \""
          << detail::json_escape(counters[i].first) << "\", \"value\": "
          << counters[i].second << '}';
    }
  }
  out << "],\n    \"gauges\": [";
  {
    const auto gauges = registry.gauge_values();
    char buf[64];
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.9g", gauges[i].second);
      out << (i > 0 ? ", " : "") << "{\"name\": \""
          << detail::json_escape(gauges[i].first) << "\", \"value\": " << buf
          << '}';
    }
  }
  out << "],\n    \"histograms\": [";
  {
    const auto histograms = registry.histograms();
    char buf[256];
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      const obs::Histogram& h = *histograms[i].second;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"count\": %llu, \"sum_ms\": %.6f, "
                    "\"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f}",
                    detail::json_escape(histograms[i].first).c_str(),
                    static_cast<unsigned long long>(h.count()), h.sum_ms(),
                    h.percentile(50.0), h.percentile(95.0),
                    h.percentile(99.0));
      out << (i > 0 ? ", " : "") << buf;
    }
  }
  out << "]\n  }\n}\n";
  return out.str();
}

inline std::string validate_manifest_json(std::string_view text) {
  using micro::JsonParser;
  using micro::JsonValue;
  JsonValue root;
  if (!JsonParser(text).parse(root)) return "not parseable as JSON";
  if (root.kind != JsonValue::Kind::Object) return "root is not an object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String ||
      schema->string != "decam-run-manifest-v1") {
    return "missing/wrong schema marker";
  }
  const JsonValue* binary = root.find("binary");
  if (binary == nullptr || binary->kind != JsonValue::Kind::String ||
      binary->string.empty()) {
    return "missing non-empty 'binary'";
  }
  const JsonValue* argv = root.find("argv");
  if (argv == nullptr || argv->kind != JsonValue::Kind::Array) {
    return "missing 'argv' array";
  }
  for (const JsonValue& arg : argv->array) {
    if (arg.kind != JsonValue::Kind::String) return "non-string argv entry";
  }
  const JsonValue* build = root.find("build");
  if (build == nullptr || build->kind != JsonValue::Kind::Object) {
    return "missing 'build' object";
  }
  for (const char* key : {"type", "sanitize", "compiler"}) {
    const JsonValue* v = build->find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::String ||
        v->string.empty()) {
      return std::string("build without non-empty '") + key + "'";
    }
  }
  const JsonValue* run = root.find("run");
  if (run == nullptr || run->kind != JsonValue::Kind::Object) {
    return "missing 'run' object";
  }
  const JsonValue* threads = run->find("threads");
  if (threads == nullptr || threads->kind != JsonValue::Kind::Number ||
      !(threads->number >= 1.0)) {
    return "run without positive 'threads'";
  }
  const JsonValue* quick = run->find("quick");
  if (quick == nullptr || quick->kind != JsonValue::Kind::Bool) {
    return "run without boolean 'quick'";
  }
  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::Object) {
    return "missing 'metrics' object";
  }
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const JsonValue* section = metrics->find(key);
    if (section == nullptr || section->kind != JsonValue::Kind::Array) {
      return std::string("metrics without '") + key + "' array";
    }
    for (const JsonValue& entry : section->array) {
      if (entry.kind != JsonValue::Kind::Object) {
        return std::string(key) + " entry not an object";
      }
      const JsonValue* name = entry.find("name");
      if (name == nullptr || name->kind != JsonValue::Kind::String ||
          name->string.empty()) {
        return std::string(key) + " entry without a name";
      }
    }
  }
  return {};
}

inline bool write_manifest(const RunManifest& m, const std::string& path) {
  const std::string doc = manifest_json(m);
  const std::string error = validate_manifest_json(doc);
  if (!error.empty()) {
    // A manifest failing its own schema is a bug, not an I/O hiccup — make
    // it loud but never take the bench run down with it.
    std::fprintf(stderr, "manifest: refusing to write %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "manifest: cannot write %s\n", path.c_str());
    return false;
  }
  out << doc;
  out.close();
  return out.good();
}

}  // namespace decam::bench::manifest
