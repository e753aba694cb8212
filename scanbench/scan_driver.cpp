// scan_driver — the in-process half of the end-to-end scan benchmark
// (scanbench/run.py builds and drives it; see scanbench/README.md).
//
// It makes the same public calls `decamctl scan` makes — read_pnm, per-member
// Detector::score + EnsembleDetector::vote_scores for the full vote,
// EnsembleDetector::decide for the short circuit, DefendedDetector members
// for --defense, runtime::parallel_map for the batch fan-out — and times
// them over a seeded synthetic PPM corpus that is read from disk inside the
// timed loop.
//
//   scan_driver generate --corpus mixed|stream --seed N --out DIR [--tiny]
//       Writes DIR/images/*.ppm (the scanned corpus), DIR/calib/*.ppm (a
//       disjoint benign regime-A calibration set) and DIR/labels.tsv
//       (file, label, width, height, frame type). The same seed gives the
//       same files.
//   scan_driver run --workload W --corpus DIR --seconds S --trace 0|1
//                   --work DIR [--seed N]
//       Sets up the detectors (timed, kSetupReps times), then scans the
//       corpus in whole passes for at least S seconds and prints one JSON
//       report on stdout. --trace 1 instead runs untraced passes for S/2
//       seconds, then traced passes for S/2 seconds that time every layer.
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/scale_attack.h"
#include "bench_common.h"
#include "common/simd.h"
#include "core/calibration.h"
#include "core/calibration_io.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/preprocess_defense.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/image_io.h"
#include "imaging/kernels.h"
#include "imaging/transform.h"
#include "obs/memstats.h"
#include "runtime/parallel.h"
#include "signal/fft_plan.h"

using namespace decam;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------- workloads --

struct Workload {
  const char* name;  // run.py picks the corpus kind it scans
  int threads;
  bool short_circuit;   // decide() instead of the full vote
  const char* defense;  // DefenseChain spec, "none" = undefended
  // Empty the resize-kernel and FFT-plan caches before every pass, so the
  // cycled corpus reaches them as a stream of never-seen geometries would.
  bool cold_caches;
};

// The rationale for each workload is recorded in BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"batch_mixed", 4, false, "none", false},
    {"guard_stream", 1, true, "none", true},
    {"batch_defended", 4, false, "median3", false},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return workload;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------- corpus --

constexpr int kTargetSide = 224;      // CNN geometry the attacks aim at
constexpr double kAttackEps = 2.0;    // per-pixel budget of the attack
constexpr int kStreamMinSide = 299;   // guard_stream side range
constexpr int kStreamMaxSide = 1024;

struct Geometry {
  int width;
  int height;
};

// batch_mixed repeats these: a power of two (radix FFT) and three sizes that
// take the Bluestein path. Per-image latencies cluster by geometry; 512²
// holds half the corpus so that the p50 falls inside a cluster, not in the
// gap between two, where it would jump from run to run.
struct MixedGeometry {
  Geometry geometry;
  int per_class;  // benign images, and as many attacks
};
constexpr MixedGeometry kMixedGeometries[] = {
    {{512, 512}, 6}, {{448, 448}, 2}, {{640, 480}, 2}, {{333, 301}, 2}};

enum class Label { Benign, Attack, Calib };

const char* to_string(Label label) {
  switch (label) {
    case Label::Benign: return "benign";
    case Label::Attack: return "attack";
    case Label::Calib: return "calib";
  }
  return "?";
}

// generate_scene's frame types: halftone-like detail frames are the benign
// heavy tail every detector false-positives on, near-flat frames the other
// extreme.
enum class Frame { Plain, Detail, Flat };

const char* to_string(Frame frame) {
  switch (frame) {
    case Frame::Plain: return "plain";
    case Frame::Detail: return "detail";
    case Frame::Flat: return "flat";
  }
  return "?";
}

struct CorpusItem {
  Geometry geometry;
  Label label;
  data::Regime regime;  // scene distribution (synth.h)
  Frame frame = Frame::Plain;
  std::uint64_t seed = 0;  // per-image content seed, drawn before fan-out
  std::string file = {};   // relative to the corpus directory
};

void shuffle(std::vector<int>& values, data::Rng& rng) {
  for (int i = static_cast<int>(values.size()) - 1; i > 0; --i) {
    std::swap(values[i], values[rng.next_int(0, i)]);
  }
}

std::vector<int> shuffled_indices(int count, data::Rng& rng) {
  std::vector<int> order(count);
  for (int i = 0; i < count; ++i) order[i] = i;
  shuffle(order, rng);
  return order;
}

// One side per stratum of [lo, hi], shuffled: every image its own geometry.
std::vector<int> stratified_sides(int count, int lo, int hi, data::Rng& rng) {
  std::vector<int> sides(count);
  const double span = hi - lo + 1;
  for (int i = 0; i < count; ++i) {
    sides[i] = lo + static_cast<int>((i + rng.next_double()) * span / count);
  }
  shuffle(sides, rng);
  return sides;
}

std::vector<Geometry> stratified_geometries(int count, data::Rng& rng) {
  const std::vector<int> widths =
      stratified_sides(count, kStreamMinSide, kStreamMaxSide, rng);
  const std::vector<int> heights =
      stratified_sides(count, kStreamMinSide, kStreamMaxSide, rng);
  std::vector<Geometry> out;
  for (int i = 0; i < count; ++i) out.push_back({widths[i], heights[i]});
  return out;
}

// Marks the generator's own share of detail and flat frames among the
// items with `label`, at positions drawn from `rng`.
void assign_frames(std::vector<CorpusItem>& items, Label label,
                   data::Rng& rng) {
  std::vector<CorpusItem*> group;
  for (CorpusItem& item : items) {
    if (item.label == label) group.push_back(&item);
  }
  const data::SceneParams rates = data::scene_params(data::Regime::B);
  const int n = static_cast<int>(group.size());
  const int detail = static_cast<int>(std::lround(rates.detail_probability * n));
  const int flat = static_cast<int>(std::lround(rates.flat_probability * n));
  const std::vector<int> order = shuffled_indices(n, rng);
  for (int i = 0; i < detail + flat && i < n; ++i) {
    group[order[i]]->frame = i < detail ? Frame::Detail : Frame::Flat;
  }
}

// A scene of exactly `geometry` and frame type: generated square at the
// longer side, then cropped at a random offset (generate_scene draws its
// own sides and frame type).
Image scene_at(data::Regime regime, Geometry geometry, Frame frame,
               data::Rng& rng) {
  data::SceneParams params = data::scene_params(regime);
  params.min_side = params.max_side = std::max(geometry.width, geometry.height);
  params.detail_probability = frame == Frame::Detail ? 1.0 : 0.0;
  params.flat_probability = frame == Frame::Flat ? 1.0 : 0.0;
  const Image scene = data::generate_scene(params, rng);
  const int x0 = rng.next_int(0, scene.width() - geometry.width);
  const int y0 = rng.next_int(0, scene.height() - geometry.height);
  return crop(scene, x0, y0, geometry.width, geometry.height);
}

Image make_image(const CorpusItem& item) {
  data::Rng rng(item.seed);
  const Image scene = scene_at(item.regime, item.geometry, item.frame, rng);
  if (item.label != Label::Attack) return scene;
  const Image target = data::generate_target(kTargetSide, kTargetSide, rng);
  attack::AttackOptions options;
  options.algo = ScaleAlgo::Bilinear;
  options.eps = kAttackEps;
  return attack::craft_attack(scene, target, options).image;
}

// The layout — geometries, attack slots, detail and flat frames — is fixed
// per corpus kind, so every seed scans the same mix and its figures differ
// by content alone; the seed draws every image's content.
std::vector<CorpusItem> plan_corpus(const std::string& kind,
                                    std::uint64_t seed, bool tiny) {
  const bool stream = kind == "stream";
  if (!stream && kind != "mixed") {
    throw std::invalid_argument("unknown corpus kind: " + kind);
  }
  data::Rng layout(stream ? 0x5eedu : 0x313u);
  std::vector<CorpusItem> items;
  if (!stream) {
    // Half benign, half attacks, per geometry, from regime B; the regime-A
    // calibration set has the same geometries (the paper's protocol:
    // thresholds fitted on one distribution, scored on another).
    const int calib_per_geometry = tiny ? 2 : 6;
    for (const auto& [geometry, per_class] : kMixedGeometries) {
      for (int i = 0; i < (tiny ? 1 : per_class); ++i) {
        items.push_back({geometry, Label::Benign, data::Regime::B});
        items.push_back({geometry, Label::Attack, data::Regime::B});
      }
    }
    for (const auto& [geometry, per_class] : kMixedGeometries) {
      for (int i = 0; i < calib_per_geometry; ++i) {
        items.push_back({geometry, Label::Calib, data::Regime::A});
      }
    }
  } else {
    // 90% benign, 10% attacks, each image its own geometry: more distinct
    // geometries than the 64-entry resize-kernel LRU holds. Regimes as for
    // the mixed corpus.
    const int count = tiny ? 10 : 80;
    const int calib_count = tiny ? 6 : 48;
    const std::vector<int> order = shuffled_indices(count, layout);
    std::vector<bool> is_attack(count, false);
    for (int i = 0; i < count / 10; ++i) is_attack[order[i]] = true;
    const std::vector<Geometry> geometries =
        stratified_geometries(count, layout);
    for (int i = 0; i < count; ++i) {
      items.push_back({geometries[i],
                       is_attack[i] ? Label::Attack : Label::Benign,
                       data::Regime::B});
    }
    for (const Geometry geometry : stratified_geometries(calib_count, layout)) {
      items.push_back({geometry, Label::Calib, data::Regime::A});
    }
  }
  assign_frames(items, Label::Benign, layout);
  assign_frames(items, Label::Calib, layout);
  // Calibration images (appended last) largest first: the set-up fan-out
  // then starts with the biggest ones side by side, so its peak memory does
  // not depend on which lanes happen to overlap.
  const auto area = [](const CorpusItem& item) {
    return item.geometry.width * item.geometry.height;
  };
  std::stable_sort(std::find_if(items.begin(), items.end(),
                                [](const CorpusItem& item) {
                                  return item.label == Label::Calib;
                                }),
                   items.end(), [&](const CorpusItem& a, const CorpusItem& b) {
                     return area(a) > area(b);
                   });

  // Distinct content streams per corpus kind, so the two corpora of one
  // seed share no images.
  data::Rng content(seed * 2 + (stream ? 1 : 0));
  int scanned = 0, calib = 0;
  for (CorpusItem& item : items) {
    item.seed = content.next_u64();
    char name[32];
    const bool is_calib = item.label == Label::Calib;
    std::snprintf(name, sizeof(name), "%s/%04d.ppm",
                  is_calib ? "calib" : "images",
                  is_calib ? calib++ : scanned++);
    item.file = name;
  }
  return items;
}

int cmd_generate(const std::string& kind, std::uint64_t seed,
                 const std::filesystem::path& out, bool tiny) {
  const std::vector<CorpusItem> items = plan_corpus(kind, seed, tiny);
  // Write into a sibling directory and rename at the end, so an interrupted
  // generation never leaves a corpus that looks complete.
  const std::filesystem::path partial = out.string() + ".partial";
  std::filesystem::remove_all(partial);
  std::filesystem::create_directories(partial / "images");
  std::filesystem::create_directories(partial / "calib");
  // Attacks first: crafting one costs seconds, a scene a fraction of that,
  // so the lanes finish together.
  std::vector<const CorpusItem*> order;
  for (const CorpusItem& item : items) order.push_back(&item);
  std::stable_partition(order.begin(), order.end(), [](const CorpusItem* i) {
    return i->label == Label::Attack;
  });
  runtime::parallel_for(0, order.size(), [&](std::size_t i) {
    write_pnm(make_image(*order[i]), (partial / order[i]->file).string());
  });
  std::ofstream labels(partial / "labels.tsv");
  for (const CorpusItem& item : items) {
    labels << item.file << '\t' << to_string(item.label) << '\t'
           << item.geometry.width << '\t' << item.geometry.height << '\t'
           << to_string(item.frame) << '\n';
  }
  labels.close();
  if (!labels) throw std::runtime_error("cannot write labels.tsv");
  std::filesystem::remove_all(out);
  std::filesystem::rename(partial, out);
  return 0;
}

struct Corpus {
  std::vector<std::string> images;  // scanned, in corpus order
  std::vector<bool> attack;         // label of each scanned image
  std::vector<std::string> calib;
};

Corpus load_corpus(const std::filesystem::path& dir) {
  std::ifstream labels(dir / "labels.tsv");
  if (!labels) throw std::runtime_error("no labels.tsv in " + dir.string());
  Corpus corpus;
  std::string line;
  while (std::getline(labels, line)) {
    std::istringstream fields(line);
    std::string file, label;
    fields >> file >> label;
    const std::string path = (dir / file).string();
    if (label == "calib") {
      corpus.calib.push_back(path);
    } else if (label == "benign" || label == "attack") {
      corpus.images.push_back(path);
      corpus.attack.push_back(label == "attack");
    } else {
      throw std::runtime_error("bad label line: " + line);
    }
  }
  if (corpus.images.empty() || corpus.calib.empty()) {
    throw std::runtime_error("empty corpus in " + dir.string());
  }
  return corpus;
}

// ----------------------------------------------------------------- setup --

constexpr double kCalibPercentile = 5.0;  // decamctl calibrate's default
constexpr double kCspThreshold = 2.0;     // decamctl's fixed CSP threshold
constexpr int kSetupReps = 7;
// `decamctl calibrate` runs on the default (hardware-sized) pool whatever
// thread count the scanner later uses; fixed here so hosts compare.
constexpr int kSetupThreads = 4;

// What `decamctl calibrate` then `decamctl scan --profile [--defense]`
// build: decamctl's three detectors, a black-box profile fitted on benign
// calibration scores (through the defense chain when there is one), saved,
// loaded back, and the ensemble over the loaded thresholds.
core::EnsembleDetector set_up(const Workload& workload, const Corpus& corpus,
                              const std::string& profile_path) {
  core::ScalingDetectorConfig scaling_config;
  scaling_config.down_width = scaling_config.down_height = kTargetSide;
  scaling_config.down_algo = scaling_config.up_algo = ScaleAlgo::Bilinear;
  scaling_config.metric = core::Metric::MSE;
  core::FilteringDetectorConfig filtering_config;
  filtering_config.metric = core::Metric::SSIM;
  const std::vector<std::shared_ptr<const core::Detector>> detectors = {
      std::make_shared<core::ScalingDetector>(scaling_config),
      std::make_shared<core::FilteringDetector>(filtering_config),
      std::make_shared<core::SteganalysisDetector>()};

  const core::DefenseChain chain = core::DefenseChain::parse(workload.defense);
  const auto defended = [&](const std::shared_ptr<const core::Detector>& d)
      -> std::shared_ptr<const core::Detector> {
    if (chain.empty()) return d;
    return std::make_shared<core::DefendedDetector>(d, chain);
  };
  const auto scaling = defended(detectors[0]);
  const auto filtering = defended(detectors[1]);
  struct BenignScores {
    double scaling = 0.0;
    double filtering = 0.0;
  };
  const std::vector<BenignScores> scored = runtime::parallel_map(
      corpus.calib, [&](const std::string& path) {
        const Image benign = read_pnm(path);
        return BenignScores{scaling->score(benign), filtering->score(benign)};
      });
  std::vector<double> scaling_scores, filtering_scores;
  for (const BenignScores& s : scored) {
    scaling_scores.push_back(s.scaling);
    filtering_scores.push_back(s.filtering);
  }
  core::CalibrationProfile profile;
  profile[detectors[0]->name()] = core::calibrate_black_box(
      scaling_scores, kCalibPercentile, core::Polarity::HighIsAttack);
  profile[detectors[1]->name()] = core::calibrate_black_box(
      filtering_scores, kCalibPercentile, core::Polarity::LowIsAttack);
  profile[detectors[2]->name()] =
      core::Calibration{kCspThreshold, core::Polarity::HighIsAttack, 0.0};
  core::save_calibrations(profile, profile_path);

  const core::CalibrationProfile loaded =
      core::load_calibrations(profile_path);
  std::vector<core::EnsembleDetector::Member> members;
  for (const auto& detector : detectors) {
    members.push_back({defended(detector), loaded.at(detector->name())});
  }
  return core::EnsembleDetector(std::move(members));
}

// ------------------------------------------------------------------ scan --

// The layers the traced run times, each around one public call.
enum Layer {
  kDecode,        // read_pnm
  kDefense,       // DefenseChain::apply (the whole defense step)
  kRoundTrip,     // ensure(RoundTrip)
  kRankFilter,    // ensure(Filter)
  kSpectrum,      // ensure(Spectrum)
  kScalingScore,  // ScalingDetector::score(AnalysisContext&)
  kFilterScore,   // FilteringDetector::score(AnalysisContext&)
  kCspScore,      // SteganalysisDetector::score(AnalysisContext&)
  kLayerCount,
};

struct ImageResult {
  std::vector<std::optional<double>> scores;  // nullopt = skipped
  bool attack = false;
  bool failed = false;
  std::string error;
  std::size_t evaluated = 0;
  double start_ms = 0.0;  // from the run epoch; read_pnm call ...
  double end_ms = 0.0;    // ... to verdict
  std::thread::id lane;
  double layer_ms[kLayerCount] = {};  // traced scans only
};

// Exactly what decamctl's scan_one computes, minus its report timers.
void scan(const core::EnsembleDetector& ensemble, const std::string& path,
          bool short_circuit, ImageResult& result) {
  const Image image = read_pnm(path);
  if (short_circuit) {
    core::EnsembleDetector::Decision decision = ensemble.decide(image);
    result.scores = std::move(decision.scores);
    result.attack = decision.attack;
    result.evaluated = decision.evaluated;
    return;
  }
  const auto& members = ensemble.members();
  std::vector<double> raw(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    raw[i] = members[i].detector->score(image);
  }
  result.scores.assign(raw.begin(), raw.end());
  result.attack = ensemble.vote_scores(raw);
  result.evaluated = members.size();
}

// The stage a detector consumes, read from the spec it primes, and the
// layers that stage's build and the detector's score are timed under.
struct MemberStage {
  core::AnalysisStage stage;
  Layer build;
  Layer score;
};

MemberStage stage_of(const core::AnalysisContextSpec& spec) {
  if (spec.down_width > 0) {
    return {core::AnalysisStage::RoundTrip, kRoundTrip, kScalingScore};
  }
  if (spec.filter_window > 0) {
    return {core::AnalysisStage::Filter, kRankFilter, kFilterScore};
  }
  if (spec.spectrum) {
    return {core::AnalysisStage::Spectrum, kSpectrum, kCspScore};
  }
  throw std::logic_error("detector primes no analysis stage");
}

// The same scan with every layer timed: a Deferred context per member
// (DefendedDetector members score their inner detector on the defended
// image), each ensure(stage) and score(AnalysisContext&) timed apart, and
// decide()'s strict-majority short circuit replayed member by member.
void trace_scan(const core::EnsembleDetector& ensemble,
                const std::string& path, bool short_circuit,
                ImageResult& result) {
  double* layer_ms = result.layer_ms;
  auto t = Clock::now();
  const auto lap = [&](Layer layer) {
    const auto now = Clock::now();
    layer_ms[layer] += ms_between(t, now);
    t = now;
  };
  const Image image = read_pnm(path);
  lap(kDecode);
  const auto& members = ensemble.members();
  const std::size_t m = members.size();
  result.scores.assign(m, std::nullopt);
  std::size_t attack_votes = 0;
  std::size_t i = 0;
  for (; i < m; ++i) {
    if (short_circuit && (2 * attack_votes > m ||
                          2 * (attack_votes + (m - i)) <= m)) {
      break;
    }
    const core::Detector* detector = members[i].detector.get();
    const Image* view = &image;
    Image defended_view;
    t = Clock::now();
    if (const auto* defended =
            dynamic_cast<const core::DefendedDetector*>(detector)) {
      defended_view = defended->chain().apply(image);
      view = &defended_view;
      detector = &defended->inner();
    }
    lap(kDefense);
    core::AnalysisContextSpec spec;
    detector->prime(spec);
    const MemberStage member = stage_of(spec);
    core::AnalysisContext context(*view, spec,
                                  core::AnalysisContext::Build::Deferred);
    t = Clock::now();
    context.ensure(member.stage);
    lap(member.build);
    const double score = detector->score(context);
    lap(member.score);
    result.scores[i] = score;
    attack_votes += core::is_attack(score, members[i].calibration) ? 1 : 0;
  }
  result.evaluated = i;
  result.attack = 2 * attack_votes > m;
}

// Lookups of the resize-kernel cache and of the two FFT-plan caches.
struct CacheCounts {
  std::uint64_t kernel_hits = 0;
  std::uint64_t kernel_lookups = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_lookups = 0;
};

CacheCounts cache_counts() {
  const KernelCacheStats kernels = kernel_cache_stats();
  const FftPlanCacheStats fft = fft_plan_cache_stats();
  const FftPlanCacheStats bluestein = bluestein_plan_cache_stats();
  return {kernels.hits, kernels.hits + kernels.misses,
          fft.hits + bluestein.hits,
          fft.hits + fft.misses + bluestein.hits + bluestein.misses};
}

struct Pass {
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::vector<ImageResult> images;
  CacheCounts caches;  // lookups made during this pass
};

// One pass over the corpus through parallel_map (input order kept; at one
// thread it is the caller's own serial loop).
Pass run_pass(const core::EnsembleDetector& ensemble, const Corpus& corpus,
              const Workload& workload, bool traced, Clock::time_point epoch) {
  if (workload.cold_caches) {
    clear_kernel_cache();
    clear_fft_plan_caches();
  }
  // Clearing resets the caches' counters too, so counts are taken per pass.
  const CacheCounts before = cache_counts();
  Pass pass;
  pass.start_ms = ms_between(epoch, Clock::now());
  pass.images =
      runtime::parallel_map(corpus.images, [&](const std::string& path) {
        ImageResult result;
        result.lane = std::this_thread::get_id();
        const auto start = Clock::now();
        try {
          if (traced) {
            trace_scan(ensemble, path, workload.short_circuit, result);
          } else {
            scan(ensemble, path, workload.short_circuit, result);
          }
        } catch (const std::exception& error) {
          result.failed = true;
          result.error = error.what();
        }
        result.start_ms = ms_between(epoch, start);
        result.end_ms = ms_between(epoch, Clock::now());
        return result;
      });
  pass.end_ms = ms_between(epoch, Clock::now());
  const CacheCounts after = cache_counts();
  pass.caches = {after.kernel_hits - before.kernel_hits,
                 after.kernel_lookups - before.kernel_lookups,
                 after.plan_hits - before.plan_hits,
                 after.plan_lookups - before.plan_lookups};
  return pass;
}

// Whole passes until `seconds` have gone by and at least `min_images` were
// scanned; accuracy and the per-image verdicts are then exact per seed.
std::vector<Pass> run_passes(const core::EnsembleDetector& ensemble,
                             const Corpus& corpus, const Workload& workload,
                             bool traced, double seconds,
                             std::size_t min_images,
                             Clock::time_point epoch) {
  std::vector<Pass> passes;
  std::size_t images = 0;
  const auto start = Clock::now();
  do {
    passes.push_back(run_pass(ensemble, corpus, workload, traced, epoch));
    images += corpus.images.size();
  } while (ms_between(start, Clock::now()) < seconds * 1000.0 ||
           images < min_images);
  return passes;
}

// ---------------------------------------------------------------- report --

// p95 needs at least 10 samples beyond it.
constexpr std::size_t kMinTimedImages = 200;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  return '"' + bench::manifest::detail::json_escape(text) + '"';
}

// True when both passes hold the same verdicts and bit-identical scores.
bool same_outcomes(const Pass& a, const Pass& b) {
  if (a.images.size() != b.images.size()) return false;
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    const ImageResult& x = a.images[i];
    const ImageResult& y = b.images[i];
    if (x.failed != y.failed || x.attack != y.attack || x.scores != y.scores) {
      return false;
    }
  }
  return true;
}

struct TimedSummary {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t images_beyond_p95 = 0;
  std::string first_error;  // of the first image whose scan threw
};

TimedSummary summarise_timed(const std::vector<Pass>& passes,
                             const Corpus& corpus) {
  TimedSummary summary;
  std::vector<double> latencies;
  std::size_t correct = 0;
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < pass.images.size(); ++i) {
      const ImageResult& r = pass.images[i];
      latencies.push_back(r.end_ms - r.start_ms);
      ++summary.attempted;
      if (r.failed) {
        if (summary.failed++ == 0) summary.first_error = r.error;
      } else if (r.attack == corpus.attack[i]) {
        ++correct;
      }
    }
  }
  const double wall_s =
      (passes.back().end_ms - passes.front().start_ms) / 1000.0;
  const double attempted = static_cast<double>(summary.attempted);
  const double p95 = core::percentile_of(latencies, 95.0);
  summary.images_beyond_p95 = static_cast<std::size_t>(std::count_if(
      latencies.begin(), latencies.end(), [&](double v) { return v > p95; }));
  summary.metrics = {
      {"images_per_s", attempted / wall_s, "1/s"},
      {"image_ms_p50", core::percentile_of(latencies, 50.0), "ms"},
      {"image_ms_p95", p95, "ms"},
      {"accuracy", static_cast<double>(correct) / attempted, "ratio"},
      {"failed_frac", static_cast<double>(summary.failed) / attempted,
       "ratio"},
  };
  return summary;
}

double hit_ratio(std::uint64_t hits, std::uint64_t lookups) {
  return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
}

struct LayerSummary {
  std::vector<Metric> metrics;
  double coverage = 0.0;  // layer self-times / traced per-image wall
  CacheCounts caches;     // the bases of the two hit ratios
};

LayerSummary summarise_layers(const std::vector<Pass>& passes, int threads) {
  LayerSummary summary;
  double layer_ms[kLayerCount] = {};
  double busy_ms = 0.0, wall_ms = 0.0, tail_idle_ms = 0.0;
  CacheCounts& caches = summary.caches;
  std::size_t images = 0, evaluated = 0;
  for (const Pass& pass : passes) {
    std::map<std::thread::id, double> lane_done;  // lane -> last image end
    for (const ImageResult& r : pass.images) {
      for (int l = 0; l < kLayerCount; ++l) layer_ms[l] += r.layer_ms[l];
      busy_ms += r.end_ms - r.start_ms;
      evaluated += r.evaluated;
      ++images;
      double& done = lane_done[r.lane];
      done = std::max(done, r.end_ms);
    }
    wall_ms += pass.end_ms - pass.start_ms;
    caches.kernel_hits += pass.caches.kernel_hits;
    caches.kernel_lookups += pass.caches.kernel_lookups;
    caches.plan_hits += pass.caches.plan_hits;
    caches.plan_lookups += pass.caches.plan_lookups;
    // A lane that got no image was idle from the start of the batch.
    double first_idle = pass.start_ms;
    if (static_cast<int>(lane_done.size()) >= threads) {
      first_idle = pass.end_ms;
      for (const auto& [lane, done] : lane_done) {
        first_idle = std::min(first_idle, done);
      }
    }
    tail_idle_ms += pass.end_ms - first_idle;
  }
  double covered_ms = 0.0;
  for (const double ms : layer_ms) covered_ms += ms;
  summary.coverage = covered_ms / busy_ms;

  const double n = static_cast<double>(images);
  summary.metrics = {
      {"imaging.decode_ms", layer_ms[kDecode] / n, "ms"},
      {"imaging.round_trip_ms", layer_ms[kRoundTrip] / n, "ms"},
      {"imaging.rank_filter_ms", layer_ms[kRankFilter] / n, "ms"},
      {"imaging.kernel_cache_hit_ratio",
       hit_ratio(caches.kernel_hits, caches.kernel_lookups), "ratio"},
      {"signal.spectrum_ms", layer_ms[kSpectrum] / n, "ms"},
      {"signal.plan_cache_hit_ratio",
       hit_ratio(caches.plan_hits, caches.plan_lookups), "ratio"},
      {"metrics.filtering_ssim_ms", layer_ms[kFilterScore] / n, "ms"},
      {"metrics.scaling_mse_ms", layer_ms[kScalingScore] / n, "ms"},
      {"cv.csp_post_ms", layer_ms[kCspScore] / n, "ms"},
      {"core.defense_apply_ms", layer_ms[kDefense] / n, "ms"},
      {"core.members_scored_per_image", static_cast<double>(evaluated) / n,
       "count"},
      {"runtime.worker_util", busy_ms / (threads * wall_ms), "ratio"},
      {"runtime.tail_idle_ms",
       tail_idle_ms / static_cast<double>(passes.size()), "ms"},
  };
  return summary;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Per-file verdicts of one pass, for run.py's check against decamctl.
std::string results_json(const Pass& pass, const Corpus& corpus) {
  std::string out = "[";
  for (std::size_t i = 0; i < pass.images.size(); ++i) {
    const ImageResult& r = pass.images[i];
    out += (i > 0 ? ", " : "") + std::string("{\"file\": ") +
           json_string(corpus.images[i]) + ", \"failed\": " +
           (r.failed ? "true" : "false") +
           ", \"verdict\": " + json_string(r.attack ? "attack" : "benign") +
           ", \"scores\": [";
    for (std::size_t j = 0; j < r.scores.size(); ++j) {
      out += j > 0 ? ", " : "";
      out += r.scores[j] ? json_number(*r.scores[j]) : "null";
    }
    out += "]}";
  }
  return out + "]";
}

std::string provenance_json(const Workload& workload) {
  utsname host{};
  uname(&host);
  return std::string("{\"host\": ") + json_string(host.nodename) +
         ", \"machine\": " + json_string(host.machine) +
         ", \"nproc\": " + std::to_string(runtime::hardware_thread_count()) +
         ", \"threads\": " + std::to_string(workload.threads) +
         ", \"build_type\": " + json_string(DECAM_BENCH_BUILD_TYPE) +
         ", \"simd\": " + json_string(simd::to_string(simd::active_isa())) +
         ", \"defense\": " + json_string(workload.defense) +
         ", \"short_circuit\": " + (workload.short_circuit ? "true" : "false") +
         "}";
}

struct RunArgs {
  std::string workload;
  std::filesystem::path corpus;
  std::filesystem::path work;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t seed = 0;
};

int cmd_run(const RunArgs& args, const std::vector<std::string>& argv) {
  const Workload& workload = find_workload(args.workload);
  const Corpus corpus = load_corpus(args.corpus);
  std::filesystem::create_directories(args.work);
  const std::string stem = std::string(workload.name) + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::string profile_path =
      (args.work / (std::string(workload.name) + ".profile")).string();

  // Set-up, repeated; the median is reported and the last ensemble used.
  std::vector<double> setup_s;
  std::optional<core::EnsembleDetector> ensemble;
  runtime::set_thread_count(kSetupThreads);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    ensemble = set_up(workload, corpus, profile_path);
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  runtime::set_thread_count(workload.threads);

  const auto epoch = Clock::now();
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Pass> timed =
      run_passes(*ensemble, corpus, workload, false, untraced_seconds,
                 args.trace ? 0 : kMinTimedImages, epoch);
  TimedSummary summary = summarise_timed(timed, corpus);
  if (summary.failed > 0) {
    std::fprintf(stderr, "scan_driver: %zu scans failed, first: %s\n",
                 summary.failed, summary.first_error.c_str());
  }
  summary.metrics.push_back(
      {"setup_s", core::percentile_of(setup_s, 50.0), "s"});

  bool deterministic = true;
  for (const Pass& pass : timed) {
    deterministic = deterministic && same_outcomes(pass, timed.front());
  }

  std::string layers = "{}";
  std::string trace_checks;
  if (args.trace) {
    const std::vector<Pass> traced = run_passes(
        *ensemble, corpus, workload, true, args.seconds / 2, 0, epoch);
    const LayerSummary layer_summary =
        summarise_layers(traced, workload.threads);
    bool traced_equal = true;
    for (const Pass& pass : traced) {
      traced_equal = traced_equal && same_outcomes(pass, timed.front());
    }
    const TimedSummary traced_timing = summarise_timed(traced, corpus);
    layers = metrics_json(layer_summary.metrics);
    trace_checks =
        ", \"traced_equal\": " + std::string(traced_equal ? "true" : "false") +
        ", \"coverage\": " + json_number(layer_summary.coverage) +
        ", \"kernel_cache_lookups\": " +
        std::to_string(layer_summary.caches.kernel_lookups) +
        ", \"plan_cache_lookups\": " +
        std::to_string(layer_summary.caches.plan_lookups) +
        ", \"traced_images\": " + std::to_string(traced_timing.attempted) +
        ", \"traced_failed\": " + std::to_string(traced_timing.failed) +
        ", \"traced_images_per_s\": " +
        json_number(traced_timing.metrics[0].value);
  }
  summary.metrics.push_back(
      {"peak_rss_mb", obs::peak_rss_bytes() / 1e6, "MB"});

  std::string pass_ms = "[";
  for (const Pass& pass : timed) {
    pass_ms += (pass_ms.size() > 1 ? ", " : "") +
               json_number(pass.end_ms - pass.start_ms);
  }
  pass_ms += "]";

  bench::manifest::RunManifest manifest;
  manifest.binary = "scan_driver";
  manifest.argv = argv;
  manifest.seed = args.seed;
  manifest.threads = workload.threads;
  bench::manifest::write_manifest(
      manifest, (args.work / (stem + ".manifest.json")).string());

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"provenance\": %s, "
      "\"attempted\": %zu, \"failed\": %zu, \"passes\": %zu, "
      "\"images_beyond_p95\": %zu, \"pass_ms\": %s, "
      "\"deterministic\": %s%s, \"metrics\": %s, \"layers\": %s, "
      "\"results\": %s}\n",
      json_string(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed),
      provenance_json(workload).c_str(), summary.attempted, summary.failed,
      timed.size(), summary.images_beyond_p95, pass_ms.c_str(),
      deterministic ? "true" : "false", trace_checks.c_str(),
      metrics_json(summary.metrics).c_str(), layers.c_str(),
      results_json(timed.front(), corpus).c_str());
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: scan_driver generate --corpus mixed|stream --seed N "
               "--out DIR [--tiny]\n"
               "       scan_driver run --workload W --corpus DIR --seconds S "
               "--trace 0|1 --work DIR [--seed N]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  bool tiny = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      usage();
    }
  }
  const auto flag = [&](const char* name) -> std::string {
    const auto found = flags.find(name);
    if (found == flags.end()) usage();
    return found->second;
  };
  try {
    const std::uint64_t seed =
        flags.count("seed") ? std::stoull(flags["seed"]) : 0;
    if (command == "generate") {
      return cmd_generate(flag("corpus"), seed, flag("out"), tiny);
    }
    if (command == "run") {
      RunArgs args;
      args.workload = flag("workload");
      args.corpus = flag("corpus");
      args.work = flag("work");
      args.seconds = std::stod(flag("seconds"));
      args.trace = flag("trace") == "1";
      args.seed = seed;
      return cmd_run(args, std::vector<std::string>(argv + 1, argv + argc));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scan_driver: %s\n", error.what());
    return 1;
  }
  usage();
}
