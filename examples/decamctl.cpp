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
//       per-detector latency table (Table 7 ordering; a short-circuit
//       scan lists only the detectors it scored); --json prints a
//       machine-readable report (scores, thresholds, verdict, latency-ms)
//       — an object for one input, an array for several. Exit code: 1 if
//       any file failed to load or is not larger than the model input,
//       else 3 if any file was flagged, else 0.
//   decamctl calibrate <benign images...> --out FILE
//                   [--percentile P] [--margin M] [--width W --height H]
//                   [--algo A] [--defense SPEC] [--threads N]
//       Build a black-box calibration profile from benign samples, scored
//       through the same defense chain `scan --defense` will use.
//   decamctl downscale <image> <out> [--width W --height H] [--algo A]
//       Show what the CNN would see (the pipeline's view).
//   decamctl spectrum <image> <out>
//       Write the centered log-magnitude spectrum (steganalysis view).
//
// Images are read by extension: .ppm/.pgm via PNM, .bmp via BMP.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "attack/scale_attack.h"
#include "core/calibration_io.h"
#include "core/preprocess_defense.h"
#include "core/scanner.h"
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
      "       in input order; exit 1 = load failure or an image not\n"
      "       larger than the model input, 3 = attack found;\n"
      "       --short-circuit stops scoring once the majority is decided\n"
      "       (skipped detectors report no score; verdict is unchanged);\n"
      "       --metrics-out writes an OpenMetrics exposition of every\n"
      "       counter/gauge/histogram (SIGUSR1 re-dumps it mid-run);\n"
      "       --profile-tree prints the hierarchical stage profile,\n"
      "       --stacks-out writes flamegraph-compatible collapsed stacks;\n"
      "       --defense runs every detector through a preprocessing chain\n"
      "       (spec grammar: none | step(+step)*, steps squeezeBITS,\n"
      "       medianK, gaussSIGMA, jpegQUALITY, e.g. squeeze4+jpeg75;\n"
      "       NOTE: thresholds calibrated on raw images do not transfer;\n"
      "       calibrate with the same --defense)\n"
      "  calibrate <benign...> --out F [--percentile P] [--margin M]\n"
      "            [--width W] [--height H] [--algo A] [--threads N]\n"
      "            [--defense SPEC]\n"
      "       percentile in (0, 50], margin >= 1 (widens the thresholds\n"
      "       away from the benign side)\n"
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

// A numeric flag's value: the whole token must parse and `valid` must
// hold, else usage() (exit 2) before any image is read.
template <typename T, typename Valid>
T number(const std::string& token, Valid valid) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc{} || stop != end || !valid(value)) usage();
  return value;
}

Options parse(int argc, char** argv, int first) {
  const auto positive = [](int value) { return value >= 1; };
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
      options.width = number<int>(next(), positive);
    } else if (arg == "--height") {
      options.height = number<int>(next(), positive);
    } else if (arg == "--algo") {
      options.algo = parse_algo(next());
    } else if (arg == "--eps") {
      options.eps = number<double>(
          next(), [](double eps) { return std::isfinite(eps) && eps >= 0.0; });
    } else if (arg == "--percentile") {
      options.percentile = number<double>(
          next(), [](double p) { return p > 0.0 && p <= 50.0; });
    } else if (arg == "--margin") {
      options.margin = number<double>(next(), [](double margin) {
        return std::isfinite(margin) && margin >= 1.0;
      });
    } else if (arg == "--profile") {
      options.profile = next();
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--threads") {
      options.threads = number<int>(next(), positive);
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

// The deployed detector's settings from the flags. A bad --defense spec is
// a usage error.
core::ScanConfig scan_config(const Options& options) {
  core::ScanConfig config;
  config.model_width = options.width;
  config.model_height = options.height;
  config.scaler = options.algo;
  config.short_circuit = options.short_circuit;
  if (!options.defense.empty()) {
    try {
      config.defense = core::DefenseChain::parse(options.defense);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "decamctl: bad --defense spec: %s\n", error.what());
      std::exit(2);
    }
  }
  return config;
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

// One scanned file, computed on any pool lane and reported on the main
// thread in input order. A file that fails to load gets an error record.
struct FileScan {
  std::string path;
  core::ScanRecord record;
};

const char* polarity_name(core::Polarity polarity) {
  return polarity == core::Polarity::HighIsAttack ? "high_is_attack"
                                                  : "low_is_attack";
}

// One scan report as a JSON object; `pad` indents every line so the same
// shape serves both the single-image object and array entries.
void print_scan_json(const FileScan& scan, const char* pad) {
  const core::ScanRecord& record = scan.record;
  const std::string image = obs::json_escape(scan.path);
  if (!record.error.empty()) {
    std::printf("%s{\n%s  \"image\": \"%s\",\n%s  \"error\": \"%s\"\n%s}",
                pad, pad, image.c_str(), pad,
                obs::json_escape(record.error).c_str(), pad);
    return;
  }
  std::printf("%s{\n%s  \"image\": \"%s\",\n%s  \"detectors\": [\n", pad, pad,
              image.c_str(), pad);
  for (std::size_t i = 0; i < record.members.size(); ++i) {
    const core::MemberRecord& member = record.members[i];
    const char* comma = i + 1 < record.members.size() ? "," : "";
    if (!member.score) {
      std::printf(
          "%s    {\"name\": \"%s\", \"score\": null, \"threshold\": %.17g, "
          "\"polarity\": \"%s\", \"vote\": \"skipped\"}%s\n",
          pad, obs::json_escape(member.name).c_str(), member.threshold,
          polarity_name(member.polarity), comma);
      continue;
    }
    std::printf(
        "%s    {\"name\": \"%s\", \"score\": %.17g, \"threshold\": %.17g, "
        "\"polarity\": \"%s\", \"vote\": \"%s\", \"latency_ms\": %.3f}%s\n",
        pad, obs::json_escape(member.name).c_str(), *member.score,
        member.threshold, polarity_name(member.polarity),
        *member.vote ? "attack" : "ok", *member.ms, comma);
  }
  std::printf(
      "%s  ],\n%s  \"verdict\": \"%s\",\n%s  \"total_latency_ms\": %.3f\n%s}",
      pad, pad, record.attack ? "attack" : "benign", pad, record.total_ms,
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

  core::CalibrationProfile profile;
  if (!options.profile.empty()) {
    profile = core::load_calibrations(options.profile);
  } else {
    profile = core::Scanner::generic_profile();
    std::fprintf(stderr,
                 "note: no --profile given, using generic thresholds\n");
  }
  const core::ScanConfig config = scan_config(options);
  if (!config.defense.empty()) {
    std::fprintf(stderr,
                 "note: scoring through defense '%s'; thresholds calibrated "
                 "on raw images may not transfer\n",
                 config.defense.name().c_str());
  }
  const core::Scanner scanner(config, profile);

  if (options.profile_tree || !options.stacks_out.empty()) {
    obs::set_profiling_enabled(true);
  }
  if (!options.metrics_out.empty()) {
    obs::install_openmetrics_signal_handler(options.metrics_out);
  }

  // Fan the files out over the pool; parallel_map keeps input order. The
  // root span makes the whole scan one profile-tree node, so per-stage self
  // times sum to the scan wall time.
  std::vector<FileScan> scans;
  {
    DECAM_SPAN("scan");
    scans = runtime::parallel_map(files, [&](const std::string& path) {
      FileScan scan{path, {}};
      try {
        scan.record = scanner.scan(read_image(path));
      } catch (const std::exception& error) {
        scan.record.error = error.what();
      }
      // Drain a pending SIGUSR1 between images so long scans can be dumped
      // mid-run (the exchange inside makes concurrent lanes race-free).
      obs::service_openmetrics_signal_dump();
      return scan;
    });
  }
  obs::service_openmetrics_signal_dump();

  bool any_error = false;
  bool any_flagged = false;
  for (const FileScan& scan : scans) {
    any_error = any_error || !scan.record.error.empty();
    any_flagged = any_flagged || scan.record.attack;
  }

  if (scans.size() == 1 && !scans[0].record.error.empty()) {
    // Single-file failure keeps the historical diagnostic on stderr.
    std::fprintf(stderr, "decamctl: %s\n", scans[0].record.error.c_str());
    return 1;
  }

  if (options.json) {
    if (scans.size() == 1) {
      print_scan_json(scans[0], "");
      std::printf("\n");
    } else {
      std::printf("[\n");
      for (std::size_t i = 0; i < scans.size(); ++i) {
        print_scan_json(scans[i], "  ");
        std::printf("%s\n", i + 1 < scans.size() ? "," : "");
      }
      std::printf("]\n");
    }
  } else if (scans.size() == 1) {
    const core::ScanRecord& record = scans[0].record;
    for (const core::MemberRecord& member : record.members) {
      if (!member.score) {
        std::printf("%-18s skipped (majority already decided)\n",
                    member.name.c_str());
        continue;
      }
      std::printf("%-18s score=%-10.4g threshold=%-10.4g -> %s\n",
                  member.name.c_str(), *member.score, member.threshold,
                  *member.vote ? "ATTACK" : "ok");
    }
    std::printf("verdict: %s\n", record.attack ? "ATTACK IMAGE" : "benign");
  } else {
    // One line per file, input order, votes inline.
    for (const FileScan& scan : scans) {
      if (!scan.record.error.empty()) {
        std::printf("%s\tERROR\t%s\n", scan.path.c_str(),
                    scan.record.error.c_str());
        continue;
      }
      std::printf("%s\t%s", scan.path.c_str(),
                  scan.record.attack ? "ATTACK" : "benign");
      for (const core::MemberRecord& member : scan.record.members) {
        std::printf(
            "\t%s=%s", member.name.c_str(),
            !member.vote ? "skipped" : (*member.vote ? "ATTACK" : "ok"));
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

    // Ensemble counters: how often the short circuit skipped each method
    // (the ensemble registers every member's counter, so zeros show too).
    report::Table battery_table({"battery counter", "count"});
    for (const auto& [name, value] :
         obs::MetricsRegistry::instance().counter_values()) {
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
  const core::CalibrationProfile profile = core::Scanner::calibrate(
      scan_config(options), options.positional.size(),
      [&](std::size_t i) { return read_image(options.positional[i]); },
      options.percentile, options.margin);
  for (const std::string& path : options.positional) {
    std::fprintf(stderr, "scored %s\n", path.c_str());
  }
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
