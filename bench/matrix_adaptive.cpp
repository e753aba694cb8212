// Adversarial scenario matrix: adaptive attacks x preprocessing defenses x
// detectors — the paper's central claim evaluated against attackers that
// know the detectors exist (ROADMAP "adversary-aware scenario matrix";
// Quiring & Rieck, arXiv:2003.08633, for the attacker moves; the pixmask
// line for the defenses).
//
// Protocol per defense chain (core/preprocess_defense.h):
//   1. Regime-A training scenes + PLAIN attacks, both passed through the
//      defense, scored by the full battery; white-box calibration per
//      detector column. The defender calibrates on the attacks it knows
//      (plain), never on the adaptive ones — that is the realistic split.
//   2. Regime-B evaluation scenes; each attack family (plain, noise_mask,
//      offgrid, jpeg_robust — src/attack/adaptive.h) crafted once per
//      scene, defended, scored. Accuracy (at the trained threshold) and
//      ROC-AUC (threshold-free separability) per grid cell, plus the
//      3-method majority-vote ensemble per attack x defense.
//
//   matrix_adaptive [--quick] [--json] [--out FILE] [--seed S] [--threads N]
//                   [--regress-against FILE] [--no-manifest]
//   matrix_adaptive --validate FILE
//
// --json writes the `decam-matrix-bench-v2` document (default
// BENCH_matrix.json) with a `decam-run-manifest-v1` sidecar next to it,
// re-reading the document through validate_matrix_json first so a
// malformed file is never written silently. The document also carries a
// "benchmarks" array of runtime entries in the kernel-bench entry format
// (bench_common.h), each with its ratio to the anchor loop timed
// alternately in the same process. They run first, at one fixed 192²
// geometry and time budget in quick and full modes, so the
// matrix_bench_regression ctest (a --quick run with --regress-against)
// compares like with like against the committed full run: it fails an
// entry whose ratio is more than 2x the baseline's. Refresh the committed grid and entries from the repo root
// with `matrix_adaptive --json` (the full grid, ~9 s on 4 threads).
#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "attack/adaptive.h"
#include "bench_common.h"
#include "core/ensemble.h"
#include "core/evaluation.h"
#include "core/preprocess_defense.h"
#include "core/roc.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/scale.h"
#include "report/table.h"
#include "runtime/parallel.h"

namespace {

using namespace decam;
using namespace decam::core;
using bench::micro::BenchResult;
using bench::micro::JsonParser;
using bench::micro::JsonValue;

struct Options {
  bool quick = false;
  bool json = false;
  bool manifest = true;
  std::string out = "BENCH_matrix.json";
  std::uint64_t seed = 42;
  std::string validate;  // non-empty: validate this file and exit
  std::string regress;   // non-empty: compare against this baseline JSON
};

Options parse(int argc, char** argv) {
  Options opt;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--json] [--out FILE] [--seed S] "
                 "[--threads N] [--regress-against FILE] [--no-manifest] | "
                 "--validate FILE\n",
                 argv[0]);
    std::exit(2);
  };
  int i = 1;
  // The value of the flag at argv[i], no smaller than `min`, else usage().
  const auto number = [&](auto min) {
    const auto value = bench::parse_number(argv[++i], min);
    if (!value) usage();
    return *value;
  };
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = number(std::uint64_t{0});
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      runtime::set_thread_count(number(1));
    } else if (std::strcmp(argv[i], "--validate") == 0 && i + 1 < argc) {
      opt.validate = argv[++i];
    } else if (std::strcmp(argv[i], "--regress-against") == 0 &&
               i + 1 < argc) {
      opt.regress = argv[++i];
    } else if (std::strcmp(argv[i], "--no-manifest") == 0) {
      opt.manifest = false;
    } else {
      usage();
    }
  }
  return opt;
}

// ------------------------------------------------------------------ grid --

enum AttackKind { kPlain = 0, kNoiseMask, kOffGrid, kJpegRobust };
constexpr int kAttackCount = 4;
const char* const kAttackNames[kAttackCount] = {"plain", "noise_mask",
                                                "offgrid", "jpeg_robust"};

struct DetectorColumn {
  const char* name;
  double ScoreRow::* member;
};
const DetectorColumn kDetectors[] = {
    {"scaling/mse", &ScoreRow::scaling_mse},
    {"filtering/ssim", &ScoreRow::filtering_ssim},
    {"steganalysis/csp", &ScoreRow::csp},
    {"histogram", &ScoreRow::histogram},
};
constexpr int kDetectorCount = 4;

struct Cell {
  std::string attack;
  std::string defense;
  std::string detector;
  double accuracy = 0.0;
  double auc = 0.0;
};

struct EnsembleCell {
  std::string attack;
  std::string defense;
  double accuracy = 0.0;
};

struct MatrixConfig {
  int n = 24;            // images per class per split
  int scene_min = 224;   // regime scene geometry
  int scene_max = 320;
  int target = 64;       // square payload geometry
  int jpeg_rounds = 4;   // jpeg_robust_attack iteration budget
  double spread = 0.7;  // off-grid blend strength (see adaptive.h)
  std::uint64_t seed = 42;
};

std::vector<Image> make_scenes(data::Regime regime, const MatrixConfig& cfg,
                               std::uint64_t seed) {
  data::SceneParams params = data::scene_params(regime);
  params.min_side = cfg.scene_min;
  params.max_side = cfg.scene_max;
  // Fork one RNG per image serially, then generate in parallel: the scene
  // set is identical at any thread count.
  data::Rng root(seed);
  std::vector<data::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(cfg.n));
  for (int i = 0; i < cfg.n; ++i) rngs.push_back(root.fork());
  return runtime::parallel_map(rngs, [&](const data::Rng& rng) {
    data::Rng local = rng;
    return data::generate_scene(params, local);
  });
}

// Crafts all four attack families for one (scene, target) pair.
std::array<Image, kAttackCount> craft_family(const Image& scene,
                                             const Image& target,
                                             const MatrixConfig& cfg,
                                             std::size_t index) {
  attack::AttackOptions base;
  base.eps = 2.0;
  std::array<Image, kAttackCount> out;
  out[kPlain] = attack::craft_attack(scene, target, base).image;
  attack::NoiseMaskOptions noise;
  noise.base = base;
  noise.seed = cfg.seed * 1000003 + index;
  out[kNoiseMask] = attack::noise_masked_attack(scene, target, noise).image;
  // Re-spread the plain attack instead of re-solving the QP — identical
  // result to off_grid_spread_attack at half the craft cost.
  out[kOffGrid] = attack::spread_off_grid(out[kPlain], target.width(),
                                          target.height(), base.algo,
                                          cfg.spread);
  attack::JpegRobustOptions jpeg;
  jpeg.base = base;
  jpeg.quality = 75;
  jpeg.max_rounds = cfg.jpeg_rounds;
  out[kJpegRobust] =
      attack::jpeg_robust_attack(scene, target, jpeg).attack.image;
  return out;
}

std::vector<ScoreRow> score_defended(const Battery& battery,
                                     const DefenseChain& chain,
                                     const std::vector<Image>& images) {
  return runtime::parallel_map(images, [&](const Image& img) {
    return battery.score(chain.apply(img));
  });
}

std::vector<double> column(const std::vector<ScoreRow>& rows,
                           double ScoreRow::* member) {
  return ExperimentData::column(rows, member);
}

// ------------------------------------------------------------------ JSON --

constexpr const char* kMatrixSchema = "decam-matrix-bench-v2";

std::string matrix_json(const MatrixConfig& cfg, bool quick,
                        const std::vector<std::string>& defenses,
                        const std::vector<Cell>& cells,
                        const std::vector<EnsembleCell>& ensemble,
                        const std::vector<BenchResult>& benchmarks) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kMatrixSchema << "\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"n\": %d, \"scene_min\": %d, "
                "\"scene_max\": %d, \"target\": %d, \"jpeg_rounds\": %d, "
                "\"seed\": %llu},\n",
                cfg.n, cfg.scene_min, cfg.scene_max, cfg.target,
                cfg.jpeg_rounds,
                static_cast<unsigned long long>(cfg.seed));
  out << buf;
  out << "  \"attacks\": [";
  for (int a = 0; a < kAttackCount; ++a) {
    out << (a > 0 ? ", " : "") << '"' << kAttackNames[a] << '"';
  }
  out << "],\n  \"defenses\": [";
  for (std::size_t d = 0; d < defenses.size(); ++d) {
    out << (d > 0 ? ", " : "") << '"' << defenses[d] << '"';
  }
  out << "],\n  \"detectors\": [";
  for (int m = 0; m < kDetectorCount; ++m) {
    out << (m > 0 ? ", " : "") << '"' << kDetectors[m].name << '"';
  }
  out << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"attack\": \"%s\", \"defense\": \"%s\", "
                  "\"detector\": \"%s\", \"accuracy\": %.4f, "
                  "\"auc\": %.4f}%s\n",
                  c.attack.c_str(), c.defense.c_str(), c.detector.c_str(),
                  c.accuracy, c.auc, i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"ensemble\": [\n";
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    const EnsembleCell& c = ensemble[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"attack\": \"%s\", \"defense\": \"%s\", "
                  "\"accuracy\": %.4f}%s\n",
                  c.attack.c_str(), c.defense.c_str(), c.accuracy,
                  i + 1 < ensemble.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"benchmarks\": "
      << bench::micro::entries_json(benchmarks) << "\n}\n";
  return out.str();
}

// Validates a `decam-matrix-bench-v2` document: schema marker, the three
// axis arrays, a FULL cells grid (attacks x defenses x detectors), an
// ensemble grid (attacks x defenses), rates in [0, 1], and runtime entries
// in the shared entry format. Empty string on success, else the first
// violation.
std::string validate_matrix_json(std::string_view text) {
  JsonValue root;
  if (!JsonParser(text).parse(root)) return "not parseable as JSON";
  if (root.kind != JsonValue::Kind::Object) return "root is not an object";
  if (std::string error = bench::micro::schema_error(root, kMatrixSchema);
      !error.empty()) {
    return error;
  }
  const JsonValue* quick = root.find("quick");
  if (quick == nullptr || quick->kind != JsonValue::Kind::Bool) {
    return "missing boolean 'quick'";
  }
  const JsonValue* config = root.find("config");
  if (config == nullptr || config->kind != JsonValue::Kind::Object) {
    return "missing 'config' object";
  }
  std::size_t axis_sizes[3] = {0, 0, 0};
  const char* const axes[3] = {"attacks", "defenses", "detectors"};
  for (int i = 0; i < 3; ++i) {
    const JsonValue* axis = root.find(axes[i]);
    if (axis == nullptr || axis->kind != JsonValue::Kind::Array ||
        axis->array.empty()) {
      return std::string("missing non-empty '") + axes[i] + "' array";
    }
    for (const JsonValue& v : axis->array) {
      if (v.kind != JsonValue::Kind::String || v.string.empty()) {
        return std::string("non-string entry in '") + axes[i] + "'";
      }
    }
    axis_sizes[i] = axis->array.size();
  }
  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || cells->kind != JsonValue::Kind::Array) {
    return "missing 'cells' array";
  }
  if (cells->array.size() != axis_sizes[0] * axis_sizes[1] * axis_sizes[2]) {
    return "'cells' is not the full attack x defense x detector grid";
  }
  for (const JsonValue& c : cells->array) {
    if (c.kind != JsonValue::Kind::Object) return "cell not an object";
    for (const char* key : {"attack", "defense", "detector"}) {
      const JsonValue* v = c.find(key);
      if (v == nullptr || v->kind != JsonValue::Kind::String ||
          v->string.empty()) {
        return std::string("cell without non-empty '") + key + "'";
      }
    }
    for (const char* key : {"accuracy", "auc"}) {
      const JsonValue* v = c.find(key);
      if (v == nullptr || v->kind != JsonValue::Kind::Number ||
          v->number < 0.0 || v->number > 1.0) {
        return std::string("cell with '") + key + "' outside [0, 1]";
      }
    }
  }
  const JsonValue* ensemble = root.find("ensemble");
  if (ensemble == nullptr || ensemble->kind != JsonValue::Kind::Array) {
    return "missing 'ensemble' array";
  }
  if (ensemble->array.size() != axis_sizes[0] * axis_sizes[1]) {
    return "'ensemble' is not the full attack x defense grid";
  }
  for (const JsonValue& c : ensemble->array) {
    if (c.kind != JsonValue::Kind::Object) {
      return "ensemble cell not an object";
    }
    const JsonValue* acc = c.find("accuracy");
    if (acc == nullptr || acc->kind != JsonValue::Kind::Number ||
        acc->number < 0.0 || acc->number > 1.0) {
      return "ensemble cell with accuracy outside [0, 1]";
    }
  }
  return bench::micro::validate_entries(root);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.validate.empty()) {
    return bench::micro::validate_file("matrix_adaptive", opt.validate,
                                       validate_matrix_json);
  }

  MatrixConfig cfg;
  cfg.seed = opt.seed;
  if (opt.quick) {
    cfg.n = 8;
    cfg.scene_min = 112;
    cfg.scene_max = 160;
    cfg.target = 32;
    cfg.jpeg_rounds = 2;
  }

  std::printf(
      "=== Adversarial matrix: attacks x defenses x detectors ===\n"
      "config: n=%d scenes=%d-%dpx target=%dx%d seed=%llu%s\n\n",
      cfg.n, cfg.scene_min, cfg.scene_max, cfg.target, cfg.target,
      static_cast<unsigned long long>(cfg.seed), opt.quick ? " [quick]" : "");

  // ---- runtime entries: fixed geometry and time budget in BOTH modes, and
  // measured first, before the grid loads the pool and the heap, so the 2x
  // tripwire compares a quick run's ratios with ones the committed full run
  // took in the same state, over as many samples ------------------------
  attack::AttackOptions base_attack;
  base_attack.eps = 2.0;
  std::vector<BenchResult> benchmarks;
  {
    const double budget_ms = 50.0;
    data::SceneParams params = data::scene_params(data::Regime::A);
    params.min_side = params.max_side = 192;
    data::Rng rng(7);
    const Image scene = data::generate_scene(params, rng);
    data::Rng target_rng(8);
    const Image target = data::generate_target(48, 48, target_rng);
    const std::size_t px = scene.plane_size() * scene.channels();
    const Image plain =
        attack::craft_attack(scene, target, base_attack).image;

    auto bench = [&](const std::string& name,
                     const std::function<void()>& fn) {
      benchmarks.push_back(
          bench::micro::run_bench(name, px, budget_ms, fn));
      bench::micro::print_result(benchmarks.back());
    };
    for (const char* spec : {"squeeze4", "median3", "gauss0.8", "jpeg75"}) {
      const DefenseChain chain = DefenseChain::parse(spec);
      bench(std::string("matrix/defense/") + spec,
            [&] { (void)chain.apply(scene); });
    }
    bench("matrix/attack/offgrid_spread", [&] {
      (void)attack::spread_off_grid(plain, 48, 48, ScaleAlgo::Bilinear, 0.5);
    });
    const DefenseChain squeeze = DefenseChain::parse("squeeze4");
    ExperimentConfig bench_config;
    bench_config.target_width = bench_config.target_height = 48;
    const Battery bench_battery(bench_config);
    bench("matrix/score/defended_battery",
          [&] { (void)bench_battery.score(squeeze.apply(scene)); });
    std::printf("\n");
  }

  // ---- datasets and attacks (defense-independent, crafted once) ----------
  const std::vector<Image> train_scenes =
      make_scenes(data::Regime::A, cfg, cfg.seed);
  const std::vector<Image> eval_scenes =
      make_scenes(data::Regime::B, cfg, cfg.seed + 1);
  const std::vector<Image> train_targets = data::generate_targets(
      cfg.target, cfg.target, cfg.n, cfg.seed ^ 0x74617267u);
  const std::vector<Image> eval_targets = data::generate_targets(
      cfg.target, cfg.target, cfg.n, (cfg.seed + 1) ^ 0x74617267u);

  std::fprintf(stderr, "crafting %d train + %dx%d eval attacks...\n", cfg.n,
               kAttackCount, cfg.n);
  std::vector<Image> train_attacks(train_scenes.size());
  runtime::parallel_for(0, train_scenes.size(), [&](std::size_t i) {
    train_attacks[i] =
        attack::craft_attack(train_scenes[i], train_targets[i], base_attack)
            .image;
  });
  std::vector<std::array<Image, kAttackCount>> eval_attacks(
      eval_scenes.size());
  runtime::parallel_for(0, eval_scenes.size(), [&](std::size_t i) {
    eval_attacks[i] = craft_family(eval_scenes[i], eval_targets[i], cfg, i);
  });

  // ---- the grid ----------------------------------------------------------
  const std::vector<std::string> defense_specs = {
      "none", "squeeze4", "median3", "gauss0.8", "jpeg75"};
  ExperimentConfig battery_config;
  battery_config.target_width = battery_config.target_height = cfg.target;
  const Battery battery(battery_config);

  std::vector<Cell> cells;
  std::vector<EnsembleCell> ensemble_cells;
  for (const std::string& spec : defense_specs) {
    const DefenseChain chain = DefenseChain::parse(spec);
    std::fprintf(stderr, "scoring defense '%s'...\n", spec.c_str());
    const std::vector<ScoreRow> train_benign =
        score_defended(battery, chain, train_scenes);
    const std::vector<ScoreRow> train_attack =
        score_defended(battery, chain, train_attacks);
    const std::vector<ScoreRow> eval_benign =
        score_defended(battery, chain, eval_scenes);

    // Calibrate every detector column on the defended PLAIN training split.
    std::array<Calibration, kDetectorCount> calibrations;
    for (int m = 0; m < kDetectorCount; ++m) {
      calibrations[m] =
          calibrate_white_box(column(train_benign, kDetectors[m].member),
                              column(train_attack, kDetectors[m].member))
              .calibration;
    }

    for (int a = 0; a < kAttackCount; ++a) {
      std::vector<Image> attack_images;
      attack_images.reserve(eval_attacks.size());
      for (const auto& family : eval_attacks) {
        attack_images.push_back(family[static_cast<std::size_t>(a)]);
      }
      const std::vector<ScoreRow> eval_attack =
          score_defended(battery, chain, attack_images);

      for (int m = 0; m < kDetectorCount; ++m) {
        const std::vector<double> benign =
            column(eval_benign, kDetectors[m].member);
        const std::vector<double> attacked =
            column(eval_attack, kDetectors[m].member);
        Cell cell;
        cell.attack = kAttackNames[a];
        cell.defense = spec;
        cell.detector = kDetectors[m].name;
        cell.accuracy =
            evaluate(benign, attacked, calibrations[m]).accuracy();
        cell.auc =
            roc_curve(benign, attacked, calibrations[m].polarity).auc;
        cells.push_back(cell);
      }

      // 3-method majority vote (scaling/mse, filtering/ssim, csp) with the
      // same defended calibrations — the paper's ensemble under fire.
      // kDetectors lists those three first.
      auto vote = [&](const ScoreRow& row) {
        return majority_vote(
            std::array{row.scaling_mse, row.filtering_ssim, row.csp},
            std::span(calibrations).first(3));
      };
      std::vector<bool> benign_flags;
      std::vector<bool> attack_flags;
      for (const ScoreRow& row : eval_benign) {
        benign_flags.push_back(vote(row));
      }
      for (const ScoreRow& row : eval_attack) {
        attack_flags.push_back(vote(row));
      }
      EnsembleCell cell;
      cell.attack = kAttackNames[a];
      cell.defense = spec;
      cell.accuracy = evaluate_flags(benign_flags, attack_flags).accuracy();
      ensemble_cells.push_back(cell);
    }
  }

  // ---- human-readable grid ----------------------------------------------
  for (int m = 0; m < kDetectorCount; ++m) {
    std::vector<std::string> header = {std::string(kDetectors[m].name) +
                                       " acc/auc"};
    for (const std::string& spec : defense_specs) header.push_back(spec);
    report::Table table(header);
    for (int a = 0; a < kAttackCount; ++a) {
      std::vector<std::string> row = {kAttackNames[a]};
      for (std::size_t d = 0; d < defense_specs.size(); ++d) {
        const Cell& cell =
            cells[(d * kAttackCount + static_cast<std::size_t>(a)) *
                      kDetectorCount +
                  static_cast<std::size_t>(m)];
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2f/%.2f", cell.accuracy,
                      cell.auc);
        row.push_back(buf);
      }
      table.add_row(row);
    }
    std::printf("%s\n", table.render().c_str());
  }
  {
    std::vector<std::string> header = {"ensemble acc"};
    for (const std::string& spec : defense_specs) header.push_back(spec);
    report::Table table(header);
    for (int a = 0; a < kAttackCount; ++a) {
      std::vector<std::string> row = {kAttackNames[a]};
      for (std::size_t d = 0; d < defense_specs.size(); ++d) {
        char buf[64];
        std::snprintf(
            buf, sizeof(buf), "%.2f",
            ensemble_cells[d * kAttackCount + static_cast<std::size_t>(a)]
                .accuracy);
        row.push_back(buf);
      }
      table.add_row(row);
    }
    std::printf("%s\n", table.render().c_str());
  }

  if (opt.json) {
    bench::manifest::RunManifest manifest;
    manifest.binary = "matrix_adaptive";
    manifest.argv.assign(argv + 1, argv + argc);
    manifest.quick = opt.quick;
    manifest.seed = cfg.seed;
    manifest.image_width = cfg.target;
    manifest.image_height = cfg.target;
    if (bench::micro::write_document(
            "matrix_adaptive", opt.out,
            matrix_json(cfg, opt.quick, defense_specs, cells, ensemble_cells,
                        benchmarks),
            validate_matrix_json, opt.manifest ? &manifest : nullptr) != 0) {
      return 1;
    }
  }
  if (!opt.regress.empty() &&
      bench::micro::check_regressions("matrix_adaptive", benchmarks,
                                      opt.regress,
                                      validate_matrix_json) != 0) {
    return 1;
  }
  return 0;
}
