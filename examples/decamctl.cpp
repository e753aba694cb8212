// decamctl — a command-line front end to the whole library, operating on
// real image files (PPM/PGM/BMP). The fifth "application": everything the
// other examples demonstrate programmatically, scriptable from a shell.
//
//   decamctl craft  <source> <target> <out>  [--algo A] [--eps E]
//       Hide <target> inside <source> (the image-scaling attack).
//   decamctl scan   <image|dir>... [--width W --height H] [--algo A]
//                   [--profile FILE] [--stats] [--json] [--threads N]
//       Run all three detectors + majority vote. Accepts several images
//       and/or directories (directories expand to their .ppm/.pgm/.bmp
//       files, sorted); multiple inputs are scored through the thread pool
//       and reported one line per file in input order. --stats adds a
//       per-detector latency table (Table 7 ordering); --json prints a
//       machine-readable report (scores, thresholds, verdict, latency-ms)
//       — an object for one input, an array for several. Exit code: 1 if
//       any file failed to load, else 3 if any file was flagged, else 0.
//   decamctl calibrate <benign images...> --out FILE
//                   [--percentile P] [--width W --height H] [--algo A]
//       Build a black-box calibration profile from benign samples.
//   decamctl downscale <image> <out> [--width W --height H] [--algo A]
//       Show what the CNN would see (the pipeline's view).
//   decamctl spectrum <image> <out>
//       Write the centered log-magnitude spectrum (steganalysis view).
//
// Images are read by extension: .ppm/.pgm via PNM, .bmp via BMP.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/scale_attack.h"
#include "core/calibration_io.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/preprocess_defense.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "imaging/image_io.h"
#include "imaging/kernels.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "report/table.h"
#include "runtime/parallel.h"
#include "signal/fft_plan.h"
#include "signal/spectrum.h"

using namespace decam;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: decamctl <craft|scan|calibrate|downscale|spectrum> ...\n"
      "  craft <source> <target> <out> [--algo A] [--eps E]\n"
      "  scan <image|dir>... [--width W] [--height H] [--algo A]\n"
      "       [--profile F] [--stats] [--json] [--threads N]\n"
      "       [--metrics-out F] [--profile-tree] [--stacks-out F]\n"
      "       [--short-circuit] [--defense SPEC]\n"
      "       directories expand to their .ppm/.pgm/.bmp files (sorted);\n"
      "       several inputs are scanned in parallel, one line per file\n"
      "       in input order; exit 1 = load failure, 3 = attack found;\n"
      "       --short-circuit stops scoring once the majority is decided\n"
      "       (skipped detectors report no score; verdict is unchanged);\n"
      "       --metrics-out writes an OpenMetrics exposition of every\n"
      "       counter/gauge/histogram (SIGUSR1 re-dumps it mid-run);\n"
      "       --profile-tree prints the hierarchical stage profile,\n"
      "       --stacks-out writes flamegraph-compatible collapsed stacks;\n"
      "       --defense runs every detector through a preprocessing chain\n"
      "       (spec grammar: none | step(+step)*, steps squeezeBITS,\n"
      "       medianK, gaussSIGMA, jpegQUALITY, e.g. squeeze4+jpeg75;\n"
      "       NOTE: thresholds calibrated on raw images need re-calibration\n"
      "       against the defended scores)\n"
      "  calibrate <benign...> --out F [--percentile P] [--margin M]\n"
      "            [--width W]\n"
      "            [--height H] [--algo A] [--threads N]\n"
      "  downscale <image> <out> [--width W] [--height H] [--algo A]\n"
      "  spectrum <image> <out>\n"
      "  algos: nearest bilinear bicubic area lanczos4\n"
      "  --threads N sizes the worker pool (default: DECAM_THREADS env or\n"
      "  hardware concurrency)\n");
  std::exit(2);
}

Image read_image(const std::string& path) {
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".bmp") {
    return read_bmp(path);
  }
  return read_pnm(path);
}

void write_image(const Image& img, const std::string& path) {
  Image clamped = img;
  clamped.clamp();
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".bmp") {
    write_bmp(clamped, path);
  } else {
    write_pnm(clamped, path);
  }
}

ScaleAlgo parse_algo(const std::string& name) {
  if (name == "nearest") return ScaleAlgo::Nearest;
  if (name == "bilinear") return ScaleAlgo::Bilinear;
  if (name == "bicubic") return ScaleAlgo::Bicubic;
  if (name == "area") return ScaleAlgo::Area;
  if (name == "lanczos4") return ScaleAlgo::Lanczos4;
  std::fprintf(stderr, "unknown algorithm: %s\n", name.c_str());
  std::exit(2);
}

struct Options {
  std::vector<std::string> positional;
  int width = 224;
  int height = 224;
  ScaleAlgo algo = ScaleAlgo::Bilinear;
  double eps = 2.0;
  double percentile = 5.0;
  double margin = 1.0;  // safety factor widening small-sample thresholds
  std::string profile;
  std::string out;
  std::string metrics_out;   // OpenMetrics exposition destination
  std::string stacks_out;    // collapsed-stack (flamegraph) destination
  std::string defense;       // preprocessing chain spec ("" / "none" = off)
  int threads = 0;  // 0 = DECAM_THREADS env / hardware default
  bool stats = false;
  bool json = false;
  bool profile_tree = false;
  bool short_circuit = false;
};

Options parse(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    // Both "--flag value" and "--flag=value" spellings are accepted.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--width") {
      options.width = std::atoi(next().c_str());
    } else if (arg == "--height") {
      options.height = std::atoi(next().c_str());
    } else if (arg == "--algo") {
      options.algo = parse_algo(next());
    } else if (arg == "--eps") {
      options.eps = std::atof(next().c_str());
    } else if (arg == "--percentile") {
      options.percentile = std::atof(next().c_str());
    } else if (arg == "--margin") {
      options.margin = std::atof(next().c_str());
    } else if (arg == "--profile") {
      options.profile = next();
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--threads") {
      options.threads = std::atoi(next().c_str());
      if (options.threads < 1) usage();
    } else if (arg == "--metrics-out") {
      options.metrics_out = next();
    } else if (arg == "--stacks-out") {
      options.stacks_out = next();
    } else if (arg == "--defense") {
      options.defense = next();
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--profile-tree") {
      options.profile_tree = true;
    } else if (arg == "--short-circuit") {
      options.short_circuit = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

int cmd_craft(const Options& options) {
  if (options.positional.size() != 3) usage();
  const Image source = read_image(options.positional[0]);
  const Image target = read_image(options.positional[1]);
  attack::AttackOptions attack_options;
  attack_options.algo = options.algo;
  attack_options.eps = options.eps;
  const attack::AttackResult result =
      attack::craft_attack(source, target, attack_options);
  write_image(result.image, options.positional[2]);
  std::printf(
      "crafted %s: |scale(A)-T|inf=%.2f mse=%.2f SSIM(A,O)=%.3f%s\n",
      options.positional[2].c_str(), result.report.downscale_linf,
      result.report.downscale_mse, result.report.source_ssim,
      result.report.converged ? "" : " (QP budget exhausted)");
  return 0;
}

struct Detectors {
  std::shared_ptr<core::ScalingDetector> scaling;
  std::shared_ptr<core::FilteringDetector> filtering;
  std::shared_ptr<core::SteganalysisDetector> steganalysis;
};

Detectors make_detectors(const Options& options) {
  core::ScalingDetectorConfig scaling_config;
  scaling_config.down_width = options.width;
  scaling_config.down_height = options.height;
  scaling_config.down_algo = scaling_config.up_algo = options.algo;
  scaling_config.metric = core::Metric::MSE;
  core::FilteringDetectorConfig filtering_config;
  filtering_config.metric = core::Metric::SSIM;
  return {std::make_shared<core::ScalingDetector>(scaling_config),
          std::make_shared<core::FilteringDetector>(filtering_config),
          std::make_shared<core::SteganalysisDetector>()};
}

// Minimal JSON string escaping for paths and detector names.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
  return out;
}

// Directories expand to their image files (sorted for stable ordering);
// plain paths pass through, preserving command-line order.
std::vector<std::string> expand_scan_inputs(
    const std::vector<std::string>& positional) {
  std::vector<std::string> files;
  for (const std::string& path : positional) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::string> dir_files;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".ppm" || ext == ".pgm" || ext == ".bmp") {
          dir_files.push_back(entry.path().string());
        }
      }
      std::sort(dir_files.begin(), dir_files.end());
      files.insert(files.end(), dir_files.begin(), dir_files.end());
    } else {
      files.push_back(path);
    }
  }
  return files;
}

// Everything scan learns about one file; computed on any pool lane,
// reported on the main thread in input order. A nullopt score means the
// short circuit skipped that detector.
struct ScanOutcome {
  std::string path;
  std::string error;  // non-empty = the file could not be scanned
  std::vector<std::optional<double>> scores;
  std::vector<double> latencies_ms;
  double total_ms = 0.0;
  bool flagged = false;
};

ScanOutcome scan_one(const std::string& path,
                     const std::vector<core::EnsembleDetector::Member>& members,
                     const core::EnsembleDetector& ensemble,
                     bool short_circuit) {
  ScanOutcome outcome;
  outcome.path = path;
  try {
    const Image image = read_image(path);
    auto& registry = obs::MetricsRegistry::instance();
    outcome.scores.resize(members.size());
    outcome.latencies_ms.resize(members.size(), 0.0);
    if (short_circuit) {
      // Short-circuit path: members score through a shared deferred
      // context and stop once the majority is decided; skipped members
      // never build their intermediates. Latency is the whole decision
      // (the per-method Table 7 split does not apply to a shared pass).
      const char* kName = "detector/ensemble";
      obs::ScopedTimer timer(registry.histogram(kName), kName);
      const core::EnsembleDetector::Decision decision =
          ensemble.decide(image);
      outcome.total_ms = timer.stop();
      outcome.scores = decision.scores;
      outcome.flagged = decision.attack;
      return outcome;
    }
    // Score each detector independently (no shared context) so the
    // recorded latencies keep the paper's Table 7 per-method semantics. The
    // timer is histogram-only: the detector opens its own profile frame.
    std::vector<double> raw(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      obs::ScopedTimer timer(
          registry.histogram("detector/" + members[i].detector->name()));
      raw[i] = members[i].detector->score(image);
      outcome.scores[i] = raw[i];
      outcome.latencies_ms[i] = timer.stop();
      outcome.total_ms += outcome.latencies_ms[i];
    }
    outcome.flagged = ensemble.vote_scores(raw);
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  return outcome;
}

// One scan report as a JSON object; `pad` indents every line so the same
// shape serves both the single-image object and array entries.
void print_scan_json(const ScanOutcome& outcome,
                     const std::vector<core::EnsembleDetector::Member>& members,
                     const char* pad) {
  if (!outcome.error.empty()) {
    std::printf("%s{\n%s  \"image\": \"%s\",\n%s  \"error\": \"%s\"\n%s}",
                pad, pad, json_escape(outcome.path).c_str(), pad,
                json_escape(outcome.error).c_str(), pad);
    return;
  }
  std::printf("%s{\n%s  \"image\": \"%s\",\n%s  \"detectors\": [\n", pad, pad,
              json_escape(outcome.path).c_str(), pad);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const core::Calibration& calibration = members[i].calibration;
    if (!outcome.scores[i].has_value()) {
      std::printf(
          "%s    {\"name\": \"%s\", \"score\": null, \"threshold\": %.17g, "
          "\"polarity\": \"%s\", \"vote\": \"skipped\"}%s\n",
          pad, json_escape(members[i].detector->name()).c_str(),
          calibration.threshold,
          calibration.polarity == core::Polarity::HighIsAttack
              ? "high_is_attack"
              : "low_is_attack",
          i + 1 < members.size() ? "," : "");
      continue;
    }
    const bool vote = core::is_attack(*outcome.scores[i], calibration);
    std::printf(
        "%s    {\"name\": \"%s\", \"score\": %.17g, \"threshold\": %.17g, "
        "\"polarity\": \"%s\", \"vote\": \"%s\", \"latency_ms\": %.3f}%s\n",
        pad, json_escape(members[i].detector->name()).c_str(),
        *outcome.scores[i], calibration.threshold,
        calibration.polarity == core::Polarity::HighIsAttack
            ? "high_is_attack"
            : "low_is_attack",
        vote ? "attack" : "ok", outcome.latencies_ms[i],
        i + 1 < members.size() ? "," : "");
  }
  std::printf(
      "%s  ],\n%s  \"verdict\": \"%s\",\n%s  \"total_latency_ms\": %.3f\n%s}",
      pad, pad, outcome.flagged ? "attack" : "benign", pad, outcome.total_ms,
      pad);
}

int cmd_scan(const Options& options) {
  if (options.positional.empty()) usage();
  const std::vector<std::string> files =
      expand_scan_inputs(options.positional);
  if (files.empty()) {
    std::fprintf(stderr, "scan: no image files found\n");
    return 1;
  }
  const Detectors detectors = make_detectors(options);

  core::CalibrationProfile profile;
  if (!options.profile.empty()) {
    profile = core::load_calibrations(options.profile);
  } else {
    // Without a profile, fall back to the universal CSP threshold plus
    // conservative generic thresholds (documented in EXPERIMENTS.md; for
    // production use `decamctl calibrate` on in-house benign images).
    profile["scaling/mse"] = {500.0, core::Polarity::HighIsAttack, 0.0};
    profile["filtering/min/ssim"] = {0.45, core::Polarity::LowIsAttack, 0.0};
    std::fprintf(stderr,
                 "note: no --profile given, using generic thresholds\n");
  }
  profile.emplace("steganalysis/csp",
                  core::Calibration{2.0, core::Polarity::HighIsAttack, 0.0});

  std::vector<core::EnsembleDetector::Member> members;
  for (const auto& detector :
       std::initializer_list<std::shared_ptr<const core::Detector>>{
           detectors.scaling, detectors.filtering, detectors.steganalysis}) {
    const auto found = profile.find(detector->name());
    if (found == profile.end()) {
      std::fprintf(stderr, "profile has no entry for %s\n",
                   detector->name().c_str());
      return 1;
    }
    members.push_back({detector, found->second});
  }

  // A defense chain wraps every member AFTER the profile lookup (profiles
  // key on the inner detector names). The wrapped names — e.g.
  // "squeeze4>scaling/mse" — flow into the reports and latency metrics, so
  // defended runs are visibly distinct from raw ones.
  if (!options.defense.empty() && options.defense != "none") {
    core::DefenseChain chain;
    try {
      chain = core::DefenseChain::parse(options.defense);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "scan: bad --defense spec: %s\n", error.what());
      return 2;
    }
    std::fprintf(stderr,
                 "note: scoring through defense '%s'; thresholds calibrated "
                 "on raw images may not transfer\n",
                 chain.name().c_str());
    for (auto& member : members) {
      member.detector =
          std::make_shared<core::DefendedDetector>(member.detector, chain);
    }
  }

  const core::EnsembleDetector ensemble{members};

  if (options.profile_tree || !options.stacks_out.empty()) {
    obs::set_profiling_enabled(true);
  }
  if (!options.metrics_out.empty()) {
    obs::install_openmetrics_signal_handler(options.metrics_out);
  }

  // Fan the files out over the pool; parallel_map keeps input order. The
  // root span makes the whole scan one profile-tree node, so per-stage self
  // times sum to the scan wall time.
  std::vector<ScanOutcome> outcomes;
  {
    DECAM_SPAN("scan");
    outcomes = runtime::parallel_map(files, [&](const std::string& path) {
      ScanOutcome outcome =
          scan_one(path, members, ensemble, options.short_circuit);
      // Drain a pending SIGUSR1 between images so long scans can be dumped
      // mid-run (the exchange inside makes concurrent lanes race-free).
      obs::service_openmetrics_signal_dump();
      return outcome;
    });
  }
  obs::service_openmetrics_signal_dump();

  bool any_error = false;
  bool any_flagged = false;
  for (const ScanOutcome& outcome : outcomes) {
    any_error = any_error || !outcome.error.empty();
    any_flagged = any_flagged || outcome.flagged;
  }

  if (outcomes.size() == 1 && !outcomes[0].error.empty()) {
    // Single-file failure keeps the historical diagnostic on stderr.
    std::fprintf(stderr, "decamctl: %s\n", outcomes[0].error.c_str());
    return 1;
  }

  if (options.json) {
    if (outcomes.size() == 1) {
      print_scan_json(outcomes[0], members, "");
      std::printf("\n");
    } else {
      std::printf("[\n");
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        print_scan_json(outcomes[i], members, "  ");
        std::printf("%s\n", i + 1 < outcomes.size() ? "," : "");
      }
      std::printf("]\n");
    }
  } else if (outcomes.size() == 1) {
    const ScanOutcome& outcome = outcomes[0];
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!outcome.scores[i].has_value()) {
        std::printf("%-18s skipped (majority already decided)\n",
                    members[i].detector->name().c_str());
        continue;
      }
      std::printf("%-18s score=%-10.4g threshold=%-10.4g -> %s\n",
                  members[i].detector->name().c_str(), *outcome.scores[i],
                  members[i].calibration.threshold,
                  core::is_attack(*outcome.scores[i], members[i].calibration)
                      ? "ATTACK"
                      : "ok");
    }
    std::printf("verdict: %s\n", outcome.flagged ? "ATTACK IMAGE" : "benign");
  } else {
    // One line per file, input order, votes inline.
    for (const ScanOutcome& outcome : outcomes) {
      if (!outcome.error.empty()) {
        std::printf("%s\tERROR\t%s\n", outcome.path.c_str(),
                    outcome.error.c_str());
        continue;
      }
      std::printf("%s\t%s", outcome.path.c_str(),
                  outcome.flagged ? "ATTACK" : "benign");
      for (std::size_t i = 0; i < members.size(); ++i) {
        std::printf(
            "\t%s=%s", members[i].detector->name().c_str(),
            !outcome.scores[i].has_value()
                ? "skipped"
                : (core::is_attack(*outcome.scores[i], members[i].calibration)
                       ? "ATTACK"
                       : "ok"));
      }
      std::printf("\n");
    }
  }
  if (options.stats) {
    // With --json, stdout must stay machine-parseable; stats go to stderr.
    std::FILE* sink = options.json ? stderr : stdout;
    std::fprintf(sink,
                 "\nper-detector latency, Table 7 ordering "
                 "(paper: CSP < MSE < SSIM):\n%s",
                 obs::latency_table_by_prefix("detector/").render().c_str());

    report::Table cache_table({"cache", "hits", "misses", "hit rate",
                               "evictions", "entries", "bytes"});
    const auto add_cache_row = [&](const char* name, std::uint64_t hits,
                                   std::uint64_t misses,
                                   std::uint64_t evictions,
                                   std::size_t entries, std::uint64_t bytes) {
      const std::uint64_t lookups = hits + misses;
      cache_table.add_row(
          {name, std::to_string(hits), std::to_string(misses),
           lookups > 0
               ? report::format_percent(static_cast<double>(hits) /
                                        static_cast<double>(lookups))
               : "-",
           std::to_string(evictions), std::to_string(entries),
           std::to_string(bytes)});
    };
    const KernelCacheStats kernels = kernel_cache_stats();
    add_cache_row("kernel_cache", kernels.hits, kernels.misses,
                  kernels.evictions, kernels.entries, kernels.resident_bytes);
    const FftPlanCacheStats fft = fft_plan_cache_stats();
    add_cache_row("fft_plan_cache", fft.hits, fft.misses, fft.evictions,
                  fft.size, fft.resident_bytes);
    const FftPlanCacheStats bluestein = bluestein_plan_cache_stats();
    add_cache_row("bluestein_plan_cache", bluestein.hits, bluestein.misses,
                  bluestein.evictions, bluestein.size,
                  bluestein.resident_bytes);
    std::fprintf(sink, "\ncache utilisation:\n%s",
                 cache_table.render().c_str());

    // Ensemble counters: images scored plus, per method, how often the
    // short circuit skipped it. Pre-resolving the skip counters keeps the
    // rows visible (as zeros) even when nothing was skipped.
    auto& registry = obs::MetricsRegistry::instance();
    for (const auto& member : members) {
      std::string method = member.detector->name();
      if (const std::size_t slash = method.find('/');
          slash != std::string::npos) {
        method.resize(slash);
      }
      (void)registry.counter("battery/skip_" + method);
    }
    report::Table battery_table({"battery counter", "count"});
    for (const auto& [name, value] : registry.counter_values()) {
      if (name.rfind("battery/", 0) == 0) {
        battery_table.add_row({name, std::to_string(value)});
      }
    }
    std::fprintf(sink, "\nensemble short-circuit counters:\n%s",
                 battery_table.render().c_str());
    std::fprintf(sink, "\nresident memory:\n%s",
                 obs::render_memory_table().render().c_str());
  }
  if (options.profile_tree) {
    std::fprintf(options.json ? stderr : stdout,
                 "\nstage profile (self-time ordered):\n%s",
                 obs::render_profile_tree().render().c_str());
  }
  if (!options.stacks_out.empty()) {
    obs::write_collapsed_stacks(options.stacks_out);
    std::fprintf(stderr, "wrote collapsed stacks to %s\n",
                 options.stacks_out.c_str());
  }
  if (!options.metrics_out.empty()) {
    obs::write_openmetrics(options.metrics_out);
    std::fprintf(stderr, "wrote OpenMetrics exposition to %s\n",
                 options.metrics_out.c_str());
  }
  obs::flush_trace();
  // Shell-friendly: load failures dominate, then detections.
  if (any_error) return 1;
  return any_flagged ? 3 : 0;
}

int cmd_calibrate(const Options& options) {
  if (options.positional.empty() || options.out.empty()) usage();
  const Detectors detectors = make_detectors(options);
  struct BenignScores {
    double scaling = 0.0;
    double filtering = 0.0;
  };
  const std::vector<BenignScores> scored = runtime::parallel_map(
      options.positional, [&](const std::string& path) {
        const Image benign = read_image(path);
        return BenignScores{detectors.scaling->score(benign),
                            detectors.filtering->score(benign)};
      });
  std::vector<double> scaling_scores, filtering_scores;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    scaling_scores.push_back(scored[i].scaling);
    filtering_scores.push_back(scored[i].filtering);
    std::fprintf(stderr, "scored %s\n", options.positional[i].c_str());
  }
  core::CalibrationProfile profile;
  profile[detectors.scaling->name()] = core::calibrate_black_box(
      scaling_scores, options.percentile, core::Polarity::HighIsAttack);
  profile[detectors.filtering->name()] = core::calibrate_black_box(
      filtering_scores, options.percentile, core::Polarity::LowIsAttack);
  if (options.margin != 1.0) {
    // Small calibration sets underestimate the benign tails; the margin
    // widens each threshold away from the benign side (attack scores sit
    // orders of magnitude away, so detection power is unaffected).
    if (options.margin < 1.0) {
      std::fprintf(stderr, "margin must be >= 1\n");
      return 1;
    }
    profile[detectors.scaling->name()].threshold *= options.margin;
    profile[detectors.filtering->name()].threshold /= options.margin;
  }
  profile[detectors.steganalysis->name()] =
      core::Calibration{2.0, core::Polarity::HighIsAttack, 0.0};
  core::save_calibrations(profile, options.out);
  std::printf("wrote %zu calibrations to %s (percentile %.1f%%, %zu benign "
              "samples)\n",
              profile.size(), options.out.c_str(), options.percentile,
              options.positional.size());
  return 0;
}

int cmd_downscale(const Options& options) {
  if (options.positional.size() != 2) usage();
  const Image image = read_image(options.positional[0]);
  const Image down = resize(image, options.width, options.height,
                            options.algo);
  write_image(down, options.positional[1]);
  std::printf("wrote %dx%d %s view to %s\n", options.width, options.height,
              to_string(options.algo), options.positional[1].c_str());
  return 0;
}

int cmd_spectrum(const Options& options) {
  if (options.positional.size() != 2) usage();
  const Image image = read_image(options.positional[0]);
  write_image(centered_log_spectrum(image), options.positional[1]);
  std::printf("wrote centered log spectrum to %s\n",
              options.positional[1].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Options options = parse(argc, argv, 2);
  if (options.threads > 0) runtime::set_thread_count(options.threads);
  try {
    if (command == "craft") return cmd_craft(options);
    if (command == "scan") return cmd_scan(options);
    if (command == "calibrate") return cmd_calibrate(options);
    if (command == "downscale") return cmd_downscale(options);
    if (command == "spectrum") return cmd_spectrum(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "decamctl: %s\n", error.what());
    return 1;
  }
  usage();
}
