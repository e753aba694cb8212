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
//   --n <count>      images per class, >= 1 (default: the command's own
//                    count, 50 per split for the tables and figures;
//                    portraits per identity for backdoor_e2e)
//   --seed <u64>     dataset seed (default 42)
//   --quick          miniature run (12 images, small scenes) for smoke
//                    tests; an explicit --n still sets the count
//   --no-cache       recompute instead of using the score cache
//   --threads <N>    worker-pool size, >= 1 (default: DECAM_THREADS env or
//                    hardware concurrency); scores are bit-identical at
//                    any thread count
//   --manifest <F>   per-run manifest destination (default
//                    MANIFEST_<command>.json in the cwd)
//   --no-manifest    suppress the manifest sidecar
// A malformed or out-of-range number prints the usage line and exits 2
// before any dataset is built.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
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
#include <thread>
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

/// A numeric flag's value: the whole token must parse as a T
/// (std::from_chars: no sign on unsigned types, no spaces, no suffix) and
/// be at least `min`; nullopt otherwise.
template <typename T>
std::optional<T> parse_number(std::string_view token, T min) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc{} || stop != end || value < min) return std::nullopt;
  return value;
}

/// Parses the paper flags. `argv[0]` is the command name: it names the
/// default manifest. Exits 2 on an unknown flag or a malformed number
/// (--n and --threads want at least 1).
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  args.config.target_width = 96;
  args.config.target_height = 96;
  args.config.min_side = 256;
  args.config.max_side = 512;
  args.config.seed = 42;
  args.manifest_path = manifest::default_manifest_path(argv[0]);
  bool want_manifest = true;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: paper %s [--n N] [--seed S] [--quick] "
                 "[--no-cache] [--threads N] [--manifest F] "
                 "[--no-manifest]\n",
                 argv[0]);
    std::exit(2);
  };
  int i = 1;
  // The value of the flag at argv[i], no smaller than `min`, else usage().
  const auto number = [&](auto min) {
    const auto value = parse_number(argv[++i], min);
    if (!value) usage();
    return *value;
  };
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      args.n = number(1);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.config.seed = number(std::uint64_t{0});
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.config.target_width = args.config.target_height = 32;
      args.config.min_side = 128;
      args.config.max_side = 192;
      args.quick = true;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      args.use_cache = false;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      runtime::set_thread_count(number(1));
    } else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      args.manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-manifest") == 0) {
      want_manifest = false;
    } else {
      usage();
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
// matrix_adaptive and `paper table7_runtime` / `extension_runtime_attack`).
//
// Each benchmark is a closure timed with steady_clock over enough iterations
// to fill a small time budget; the *minimum* iteration time is reported (the
// usual micro-bench convention: the minimum is the run least disturbed by
// the OS), normalised to ns/pixel and MP/s over a caller-declared pixel
// count. Every iteration of the closure alternates with one of an anchor —
// by default anchor_loop(), a fixed loop that calls no library code — and
// the entry's minimum over the anchor's minimum is its `ratio`. The
// regression gates compare ratios, never absolute times: a host that runs
// everything 3x slower leaves a ratio where it was, a kernel that got 3x
// slower does not. The kernel and obs documents (schema
// `decam-kernel-bench-v2`) and the matrix document's "benchmarks" array
// share one entry format, written by entry_json() and checked by
// validate_entries().
// ---------------------------------------------------------------------------

namespace decam::bench::micro {

/// The "anchor" field of an entry timed against anchor_loop().
inline constexpr const char* kLoopAnchor = "loop";

/// Floats in each of anchor_loop()'s two arrays: the 192² RGB sample count
/// of kernel_bench --quick.
inline constexpr std::size_t kAnchorFloats = 192 * 192 * 3;

/// The fixed same-run reference: four passes of a[i] = a[i] * 0.999f + b[i]
/// over two kAnchorFloats arrays (0.9 MB). It calls nothing under src/, so
/// only the host and the compiler flags move its time. `a` converges to the
/// fixed point 500, so no value ever goes subnormal.
inline void anchor_loop() {
  static std::vector<float> a(kAnchorFloats, 1.0f);
  static const std::vector<float> b(kAnchorFloats, 0.5f);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < kAnchorFloats; ++i) a[i] = a[i] * 0.999f + b[i];
  }
  asm volatile("" : : "r"(a.data()) : "memory");  // the stores are observable
}

/// What an entry's time is divided by: anchor_loop() by default. An entry
/// whose cost is a multiple of another entry's (a contended probe against
/// its uncontended twin) names that entry and times its closure instead.
struct Anchor {
  std::string name = kLoopAnchor;
  std::function<void()> fn = anchor_loop;
};

struct BenchResult {
  std::string name;
  std::size_t pixels = 0;   // work size the timings normalise over
  double ms_per_iter = 0.0; // minimum observed iteration time
  double ns_per_pixel = 0.0;
  double mpix_per_s = 0.0;
  int iters = 0;
  std::string anchor = kLoopAnchor;  // Anchor::name
  double anchor_ms = 0.0;   // minimum anchor time over the same iterations
  double ratio = 0.0;       // ms_per_iter / anchor_ms: what the gates compare
};

/// A result from its two minimum times, with the derived fields filled in.
inline BenchResult make_result(std::string name, std::size_t pixels,
                               double ms, int iters, double anchor_ms,
                               std::string anchor = kLoopAnchor) {
  BenchResult r;
  r.name = std::move(name);
  r.pixels = pixels;
  r.ms_per_iter = ms;
  r.ns_per_pixel = ms * 1e6 / static_cast<double>(pixels);
  r.mpix_per_s = static_cast<double>(pixels) / (ms * 1e-3) / 1e6;
  r.iters = iters;
  r.anchor = std::move(anchor);
  r.anchor_ms = anchor_ms;
  r.ratio = ms / anchor_ms;
  return r;
}

/// Runs per entry at the least. The short anchor finds a quiet moment of
/// the host in a few runs; an entry of several milliseconds needs more, or
/// its minimum (and so its ratio) swings with the host's bursts.
inline constexpr int kMinIters = 10;

/// Times `fn` until `budget_ms` of its measured work has accumulated (at
/// least `min_iters` runs, at most 1000), timing `anchor` once before each
/// run, and returns both minima. The anchor runs twice back to back and
/// only the second run is timed: the first reloads its data and absorbs
/// what the previous run of `fn` left behind (dirty cache lines, a clock
/// transition), so the timed run reads the host rather than the entry.
inline BenchResult run_bench(const std::string& name, std::size_t pixels,
                             double budget_ms, const std::function<void()>& fn,
                             int min_iters = kMinIters,
                             const Anchor& anchor = {}) {
  using clock = std::chrono::steady_clock;
  const auto time_ms = [](const std::function<void()>& f) {
    const auto t0 = clock::now();
    f();
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  // Warm-up: first-touch allocations, table caches, branch training.
  anchor.fn();
  fn();
  double total_ms = 0.0;
  double best_ms = std::numeric_limits<double>::infinity();
  double best_anchor_ms = best_ms;
  int iters = 0;
  while (iters < min_iters || total_ms < budget_ms) {
    anchor.fn();
    best_anchor_ms = std::min(best_anchor_ms, time_ms(anchor.fn));
    const double ms = time_ms(fn);
    best_ms = std::min(best_ms, ms);
    total_ms += ms;
    if (++iters >= 1000) break;  // fast kernels: enough samples
  }
  return make_result(name, pixels, best_ms, iters, best_anchor_ms,
                     anchor.name);
}

inline void print_result(const BenchResult& r) {
  std::printf("%-34s %10.3f ms  %8.3f ns/px  %9.1f MP/s  %8.3f x %s  (x%d)\n",
              r.name.c_str(), r.ms_per_iter, r.ns_per_pixel, r.mpix_per_s,
              r.ratio, r.anchor.c_str(), r.iters);
}

/// One entry of a document's "benchmarks" array, the format every bench
/// document shares.
inline std::string entry_json(const BenchResult& r) {
  const std::string name = obs::json_escape(r.name);
  const std::string anchor = obs::json_escape(r.anchor);
  std::vector<char> buf(name.size() + anchor.size() + 320);
  std::snprintf(buf.data(), buf.size(),
                "{\"name\": \"%s\", \"pixels\": %zu, \"ms_per_iter\": %.6f, "
                "\"ns_per_pixel\": %.6f, \"mpix_per_s\": %.3f, \"iters\": %d, "
                "\"anchor\": \"%s\", \"anchor_ms\": %.6f, \"ratio\": %.6f}",
                name.c_str(), r.pixels, r.ms_per_iter, r.ns_per_pixel,
                r.mpix_per_s, r.iters, anchor.c_str(), r.anchor_ms, r.ratio);
  return buf.data();
}

/// The "benchmarks" array: one entry_json() per line.
inline std::string entries_json(const std::vector<BenchResult>& results) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += "    " + entry_json(results[i]) +
           (i + 1 < results.size() ? ",\n" : "\n");
  }
  return out + "  ]";
}

inline constexpr const char* kBenchSchema = "decam-kernel-bench-v2";

/// Serialises results as the `decam-kernel-bench-v2` JSON document.
inline std::string bench_json(const std::vector<BenchResult>& results,
                              bool quick) {
  return std::string("{\n  \"schema\": \"") + kBenchSchema +
         "\",\n  \"quick\": " + (quick ? "true" : "false") +
         ",\n  \"benchmarks\": " + entries_json(results) + "\n}\n";
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

/// Empty if `root` carries `"schema": want`, else what it carries instead:
/// a document on an older schema is refused, never read as the new one.
inline std::string schema_error(const JsonValue& root, std::string_view want) {
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String) {
    return "missing schema marker";
  }
  if (schema->string != want) {
    return "schema '" + schema->string + "', want '" + std::string(want) +
           "'";
  }
  return {};
}

/// Checks a document's "benchmarks" array against the one entry format
/// (entry_json): non-empty, each entry named once, positive timings and
/// ratio, a named anchor. Empty string on success, else the first
/// violation.
inline std::string validate_entries(const JsonValue& root) {
  const JsonValue* benches = root.find("benchmarks");
  if (benches == nullptr || benches->kind != JsonValue::Kind::Array) {
    return "missing 'benchmarks' array";
  }
  if (benches->array.empty()) return "'benchmarks' is empty";
  std::vector<std::string_view> names;
  for (const JsonValue& b : benches->array) {
    if (b.kind != JsonValue::Kind::Object) return "benchmark not an object";
    const JsonValue* name = b.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::String ||
        name->string.empty()) {
      return "benchmark without a name";
    }
    if (std::find(names.begin(), names.end(), name->string) != names.end()) {
      return "benchmark '" + name->string + "' appears twice";
    }
    names.push_back(name->string);
    for (const char* key : {"pixels", "ms_per_iter", "ns_per_pixel",
                            "mpix_per_s", "iters", "anchor_ms", "ratio"}) {
      const JsonValue* v = b.find(key);
      if (v == nullptr || v->kind != JsonValue::Kind::Number ||
          !(v->number > 0.0)) {
        return "benchmark '" + name->string + "': non-positive " + key;
      }
    }
    const JsonValue* anchor = b.find("anchor");
    if (anchor == nullptr || anchor->kind != JsonValue::Kind::String ||
        anchor->string.empty()) {
      return "benchmark '" + name->string + "' without an anchor";
    }
  }
  return {};
}

/// Validates a `decam-kernel-bench-v2` document: schema marker, boolean
/// 'quick' and the entries. Returns an empty string on success, else a
/// description of the first violation.
inline std::string validate_bench_json(std::string_view text) {
  JsonValue root;
  if (!JsonParser(text).parse(root)) return "not parseable as JSON";
  if (root.kind != JsonValue::Kind::Object) return "root is not an object";
  if (std::string error = schema_error(root, kBenchSchema); !error.empty()) {
    return error;
  }
  const JsonValue* quick = root.find("quick");
  if (quick == nullptr || quick->kind != JsonValue::Kind::Bool) {
    return "missing boolean 'quick'";
  }
  return validate_entries(root);
}

/// The contents of the file at `path`, or nullopt if it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Checks the document at `path` with `validate`; 0 on success. `label` is
/// the reporting prefix (the bench binary's name).
inline int validate_file(
    const std::string& label, const std::string& path,
    std::string (*validate)(std::string_view) = validate_bench_json) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s: cannot open %s\n", label.c_str(), path.c_str());
    return 1;
  }
  const std::string error = validate(*text);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s: %s\n", label.c_str(), path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: valid document\n", path.c_str());
  return 0;
}

/// Writes `doc` to `path` once `validate` accepts it, so a malformed
/// document is never written silently, then `manifest` (if given) next to
/// it: BENCH_x.json -> BENCH_x.manifest.json, so a refreshed baseline
/// carries the build and host of the run that produced it. 0 on success,
/// else 1 with a stderr line.
inline int write_document(const std::string& label, const std::string& path,
                          const std::string& doc,
                          std::string (*validate)(std::string_view),
                          const manifest::RunManifest* manifest) {
  const std::string error = validate(doc);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: refusing to write %s: %s\n", label.c_str(),
                 path.c_str(), error.c_str());
    return 1;
  }
  std::ofstream out(path);
  out << doc;
  out.close();
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", label.c_str(),
                 path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  if (manifest != nullptr) {
    const std::size_t dot = path.rfind(".json");
    (void)manifest::write_manifest(
        *manifest, (dot == std::string::npos ? path : path.substr(0, dot)) +
                       ".manifest.json");
  }
  return 0;
}

/// A run judged against a baseline document.
struct Comparison {
  std::string refused;              // non-empty: the baseline was not used
  std::vector<std::string> failed;  // entries that fail the gate, run order
  std::vector<std::string> lines;   // one per failed entry or one over 1.25x
  int compared = 0;                 // entries judged on their ratio
};

/// Judges `results` against the baseline document `baseline`, which must
/// pass `validate`. Each run entry needs a baseline entry of its name, at
/// its pixel count and on the same anchor, else it fails by name; it then
/// fails if its ratio exceeds `factor` times the baseline's. Baseline
/// entries the run lacks (a --filter run) are not judged. The factor is
/// a tripwire for accidental algorithmic regressions (a dropped fast path,
/// an O(k) loop reappearing), not a noise gate.
inline Comparison compare_to_baseline(
    const std::vector<BenchResult>& results, std::string_view baseline,
    std::string (*validate)(std::string_view), double factor) {
  Comparison c;
  c.refused = validate(baseline);
  if (!c.refused.empty()) return c;
  JsonValue root;
  JsonParser(baseline).parse(root);  // validated above
  const std::vector<JsonValue>& entries = root.find("benchmarks")->array;
  char line[256];
  const auto fail = [&](const BenchResult& r, const std::string& why) {
    std::snprintf(line, sizeof(line), "%-34s %s  FAIL", r.name.c_str(),
                  why.c_str());
    c.lines.emplace_back(line);
    c.failed.push_back(r.name);
  };
  for (const BenchResult& r : results) {
    const auto base = std::find_if(
        entries.begin(), entries.end(),
        [&](const JsonValue& b) { return b.find("name")->string == r.name; });
    if (base == entries.end()) {
      fail(r, "not in the baseline");
      continue;
    }
    const double base_pixels = base->find("pixels")->number;
    if (base_pixels != static_cast<double>(r.pixels)) {
      char why[96];
      std::snprintf(why, sizeof(why),
                    "measured at %zu px, the baseline at %.0f", r.pixels,
                    base_pixels);
      fail(r, why);
      continue;
    }
    const std::string& base_anchor = base->find("anchor")->string;
    if (base_anchor != r.anchor) {
      fail(r, "anchored on '" + r.anchor + "', the baseline on '" +
                  base_anchor + "'");
      continue;
    }
    ++c.compared;
    const double base_ratio = base->find("ratio")->number;
    const double growth = r.ratio / base_ratio;
    const bool bad = growth > factor;
    if (bad || growth > 1.25) {
      std::snprintf(line, sizeof(line),
                    "%-34s ratio %8.3f -> %8.3f (%.2fx)  %s %.4f -> %.4f ms%s",
                    r.name.c_str(), base_ratio, r.ratio, growth,
                    r.anchor.c_str(), base->find("anchor_ms")->number,
                    r.anchor_ms, bad ? "  REGRESSION" : "");
      c.lines.emplace_back(line);
    }
    if (bad) c.failed.push_back(r.name);
  }
  return c;
}

/// compare_to_baseline against the document at `path`, printed. Returns the
/// number of failing entries, or 1 if the baseline is unreadable or refused.
inline int check_regressions(
    const std::string& label, const std::vector<BenchResult>& results,
    const std::string& path,
    std::string (*validate)(std::string_view) = validate_bench_json,
    double factor = 2.0) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s: cannot open baseline %s\n", label.c_str(),
                 path.c_str());
    return 1;
  }
  const Comparison c = compare_to_baseline(results, *text, validate, factor);
  if (!c.refused.empty()) {
    std::fprintf(stderr, "%s: baseline %s refused: %s\n", label.c_str(),
                 path.c_str(), c.refused.c_str());
    return 1;
  }
  std::printf(
      "\nregression check vs %s: an entry fails above %.1fx the baseline's\n"
      "ratio to its anchor (ratio baseline -> run, then the anchor's min ms\n"
      "baseline -> run: a slow host moves both, a slow kernel only the "
      "ratio)\n",
      path.c_str(), factor);
  for (const std::string& line : c.lines) std::printf("  %s\n", line.c_str());
  std::printf("  %d/%zu entries compared, %zu failing\n", c.compared,
              results.size(), c.failed.size());
  return static_cast<int>(c.failed.size());
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

// The host's CPU model: the first "model name" of /proc/cpuinfo, or
// "unknown" where that file is missing or does not name one.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    const std::size_t value = line.find_first_not_of(" \t", colon + 1);
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
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
  // `threads` is the pool the run used; `hardware_threads` and `cpu` say
  // what the host had, so a one-CPU host and DECAM_THREADS=1 read apart.
  const int threads = m.threads > 0 ? m.threads : runtime::thread_count();
  char run_buf[256];
  std::snprintf(run_buf, sizeof(run_buf),
                "  \"run\": {\"threads\": %d, \"hardware_threads\": %u, "
                "\"quick\": %s, \"seed\": %llu, \"image_width\": %d, "
                "\"image_height\": %d, ",
                threads, std::thread::hardware_concurrency(),
                m.quick ? "true" : "false",
                static_cast<unsigned long long>(m.seed), m.image_width,
                m.image_height);
  out << run_buf << "\"cpu\": \"" << detail::json_escape(detail::cpu_model())
      << "\"},\n";

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
  if (std::string error = micro::schema_error(root, "decam-run-manifest-v1");
      !error.empty()) {
    return error;
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
  // 0: the host did not report its thread count.
  const JsonValue* hardware = run->find("hardware_threads");
  if (hardware == nullptr || hardware->kind != JsonValue::Kind::Number ||
      !(hardware->number >= 0.0)) {
    return "run without non-negative 'hardware_threads'";
  }
  const JsonValue* cpu = run->find("cpu");
  if (cpu == nullptr || cpu->kind != JsonValue::Kind::String ||
      cpu->string.empty()) {
    return "run without non-empty 'cpu'";
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
