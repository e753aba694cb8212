// The paper's evaluation in one driver: `paper <command> [flags]` runs one
// entry of the command table at the end of this file, `paper all` runs
// every entry in table order, and `paper` alone lists the table. Each
// command reproduces one table or figure of the paper, or one ablation or
// extension; the comment above its function says which, and what shape of
// result to expect. Flags are the bench_common.h ones.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attack/adaptive.h"
#include "attack/critical_pixels.h"
#include "attack/scale_attack.h"
#include "bench_common.h"
#include "core/calibration.h"
#include "core/ensemble.h"
#include "core/evaluation.h"
#include "core/filtering_detector.h"
#include "core/histogram_detector.h"
#include "core/reconstruction_defense.h"
#include "core/roc.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/filter.h"
#include "imaging/jpeg_sim.h"
#include "imaging/transform.h"
#include "metrics/mse.h"
#include "metrics/ssim.h"
#include "report/histogram_ascii.h"
#include "report/table.h"

namespace {

using namespace decam;
using namespace decam::core;
using bench::BenchArgs;

// One detection method as the tables and figures see it: its two score
// columns, and the image pair its metrics compare ("I, S": the input vs its
// scaling round trip; "I, F": the input vs its minimum-filtered self).
struct Method {
  double ScoreRow::* mse;
  double ScoreRow::* ssim;
  const char* pair;
};

constexpr Method kScaling{&ScoreRow::scaling_mse, &ScoreRow::scaling_ssim,
                          "I, S"};
constexpr Method kFiltering{&ScoreRow::filtering_mse,
                            &ScoreRow::filtering_ssim, "I, F"};

// ------------------------------------------------------------- tables --

// Tables 2 and 4: MSE and SSIM thresholds selected on the regime-A
// calibration set via the white-box search, then evaluated on the unseen
// regime-B set.
void white_box_table(const BenchArgs& args, const Method& method,
                     const char* paper) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  report::Table table({"Metric", "Threshold", "Acc.", "Prec.", "Rec.", "FAR",
                       "FRR"});
  struct Row {
    const char* label;
    double ScoreRow::* member;
    int decimals;
  };
  const Row rows[] = {{"MSE", method.mse, 2}, {"SSIM", method.ssim, 4}};
  for (const Row& row : rows) {
    const WhiteBoxResult wb = calibrate_white_box(
        ExperimentData::column(data.train_benign, row.member),
        ExperimentData::column(data.train_attack, row.member));
    const DetectionStats stats =
        evaluate(ExperimentData::column(data.eval_benign, row.member),
                 ExperimentData::column(data.eval_attack_white, row.member),
                 wb.calibration);
    table.add_row({row.label,
                   report::format_double(wb.calibration.threshold,
                                         row.decimals),
                   report::format_percent(stats.accuracy()),
                   report::format_percent(stats.precision()),
                   report::format_percent(stats.recall()),
                   report::format_percent(stats.far()),
                   report::format_percent(stats.frr())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", paper);
}

// Tables 3 and 5: thresholds from percentiles (1/2/3%) of the benign
// calibration distribution alone, evaluated against attacks crafted with an
// unknown pool of scalers. The benign mean/std columns mirror the paper's
// tables.
void black_box_table(const BenchArgs& args, const Method& method,
                     const char* paper) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  report::Table table({"Metric", "Percentile", "Acc.", "Prec.", "Rec.",
                       "FAR", "FRR", "Mean", "STD"});
  struct Row {
    const char* label;
    double ScoreRow::* member;
    Polarity polarity;
  };
  const Row rows[] = {{"MSE", method.mse, Polarity::HighIsAttack},
                      {"SSIM", method.ssim, Polarity::LowIsAttack}};
  for (const Row& row : rows) {
    const auto benign_train =
        ExperimentData::column(data.train_benign, row.member);
    const ScoreStats stats_train = score_stats(benign_train);
    for (double percentile : {1.0, 2.0, 3.0}) {
      const Calibration calibration =
          calibrate_black_box(benign_train, percentile, row.polarity);
      const DetectionStats stats =
          evaluate(ExperimentData::column(data.eval_benign, row.member),
                   ExperimentData::column(data.eval_attack_black, row.member),
                   calibration);
      const bool first = percentile == 1.0;
      const int decimals = row.polarity == Polarity::HighIsAttack ? 1 : 3;
      table.add_row({first ? row.label : "",
                     report::format_percent(percentile / 100.0, 0),
                     report::format_percent(stats.accuracy()),
                     report::format_percent(stats.precision()),
                     report::format_percent(stats.recall()),
                     report::format_percent(stats.far()),
                     report::format_percent(stats.frr()),
                     first ? report::format_double(stats_train.mean, decimals)
                           : "",
                     first ? report::format_double(stats_train.stddev,
                                                   decimals)
                           : ""});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", paper);
}

// Reproduces Table 2 of the paper: the scaling detection method in the
// white-box setting. Expected shape: accuracy >= ~99%, FAR/FRR near 0.
void table2_scaling_whitebox(const BenchArgs& args) {
  white_box_table(
      args, kScaling,
      "Paper reports (1000+1000 images, real datasets): MSE 99.9% acc, "
      "0.0% FAR, 0.1% FRR; SSIM 99.0% acc, 0.3% FAR, 0.1% FRR.");
}

// Reproduces Table 3 of the paper: the scaling detection method in the
// black-box setting. Expected shape: accuracy ~99%+, FRR tracking the
// percentile, FAR ~0.
void table3_scaling_blackbox(const BenchArgs& args) {
  black_box_table(
      args, kScaling,
      "Paper reports: MSE/SSIM at 1% percentile reach 99.5% acc with "
      "0.0% FAR and FRR ~= the percentile (1-3%); benign MSE mean 218.6 "
      "std 217.6 on NeurIPS-2017 (absolute values are dataset-specific).");
}

// Reproduces Table 4 of the paper: the filtering detection method (2x2
// minimum filter) in the white-box setting. Expected shape: accuracy in
// the high 90s with SSIM slightly ahead of MSE (the paper reports 99.3%
// SSIM vs 98.6% MSE).
void table4_filtering_whitebox(const BenchArgs& args) {
  white_box_table(
      args, kFiltering,
      "Paper reports: MSE 98.6% acc (FAR 2.5%, FRR 0.8%); SSIM 99.3% "
      "acc (FAR 1.3%, FRR 0.2%).");
}

// Reproduces Table 5 of the paper: the filtering detection method in the
// black-box setting. Expected shape: accuracy ~98-99%, FRR tracking the
// percentile, SSIM the recommended metric.
void table5_filtering_blackbox(const BenchArgs& args) {
  black_box_table(
      args, kFiltering,
      "Paper reports: best config SSIM at 1% percentile, 99.2% acc "
      "(FAR 0.6%, FRR 1.0%); benign filtering MSE mean 1952.3 std 1543.3 "
      "on NeurIPS-2017 (absolute values are dataset-specific).");
}

// Reproduces Table 6 of the paper: the steganalysis (CSP) detection
// method. The white-box rows confirm that the fixed threshold CSP >= 2
// emerges from the data; the black-box row demonstrates the paper's
// observation that the SAME fixed threshold needs no calibration at all.
void table6_steganalysis(const BenchArgs& args) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  // The paper fixes the threshold at 2 centered spectrum points; we also
  // show the white-box search lands on (or next to) the same value.
  const WhiteBoxResult wb = calibrate_white_box(
      ExperimentData::column(data.train_benign, &ScoreRow::csp),
      ExperimentData::column(data.train_attack, &ScoreRow::csp));
  std::printf("White-box search suggests threshold %.1f (polarity: %s).\n\n",
              wb.calibration.threshold,
              wb.calibration.polarity == Polarity::HighIsAttack
                  ? "high-is-attack"
                  : "low-is-attack");

  const Calibration fixed{2.0, Polarity::HighIsAttack, 0.0};
  report::Table table({"Setting", "Threshold", "Acc.", "Prec.", "Rec.",
                       "FAR", "FRR"});
  struct Row {
    const char* label;
    const std::vector<ScoreRow>* benign;
    const std::vector<ScoreRow>* attack;
  };
  const Row rows[] = {
      {"calibration set", &data.train_benign, &data.train_attack},
      {"unseen, white-box attacks", &data.eval_benign,
       &data.eval_attack_white},
      {"unseen, black-box attacks", &data.eval_benign,
       &data.eval_attack_black}};
  for (const Row& row : rows) {
    const DetectionStats stats =
        evaluate(ExperimentData::column(*row.benign, &ScoreRow::csp),
                 ExperimentData::column(*row.attack, &ScoreRow::csp), fixed);
    table.add_row({row.label, "CSP >= 2",
                   report::format_percent(stats.accuracy()),
                   report::format_percent(stats.precision()),
                   report::format_percent(stats.recall()),
                   report::format_percent(stats.far()),
                   report::format_percent(stats.frr())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper reports: 98.9%% acc with FAR 0.3%% and FRR 1.7%%, identical "
      "in the white-box and black-box settings because the threshold is "
      "fixed at 2.\n");
}

// Reproduces Table 8 of the paper: the Decamouflage ensemble (majority
// vote of scaling/MSE, filtering/SSIM and steganalysis/CSP) in both the
// white-box and black-box settings. Expected shape: the ensemble matches
// or beats the best individual method in both settings.
void table8_ensemble(const BenchArgs& args) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  const Calibration steg{2.0, Polarity::HighIsAttack, 0.0};

  // White-box: thresholds from the two-class search on the training set.
  const Calibration wb_scaling =
      calibrate_white_box(
          ExperimentData::column(data.train_benign, &ScoreRow::scaling_mse),
          ExperimentData::column(data.train_attack, &ScoreRow::scaling_mse))
          .calibration;
  const Calibration wb_filtering =
      calibrate_white_box(
          ExperimentData::column(data.train_benign, &ScoreRow::filtering_ssim),
          ExperimentData::column(data.train_attack,
                                 &ScoreRow::filtering_ssim))
          .calibration;

  // Black-box: 1% percentile thresholds from benign scores only.
  const Calibration bb_scaling = calibrate_black_box(
      ExperimentData::column(data.train_benign, &ScoreRow::scaling_mse), 1.0,
      Polarity::HighIsAttack);
  const Calibration bb_filtering = calibrate_black_box(
      ExperimentData::column(data.train_benign, &ScoreRow::filtering_ssim),
      1.0, Polarity::LowIsAttack);

  auto ensemble_stats = [&](const std::array<Calibration, 3>& calibrations,
                            const std::vector<ScoreRow>& attack_rows) {
    auto vote = [&](const ScoreRow& row) {
      return majority_vote(
          std::array{row.scaling_mse, row.filtering_ssim, row.csp},
          calibrations);
    };
    std::vector<bool> benign_flags;
    std::vector<bool> attack_flags;
    for (const ScoreRow& row : data.eval_benign) {
      benign_flags.push_back(vote(row));
    }
    for (const ScoreRow& row : attack_rows) attack_flags.push_back(vote(row));
    return evaluate_flags(benign_flags, attack_flags);
  };
  const DetectionStats white = ensemble_stats(
      {wb_scaling, wb_filtering, steg}, data.eval_attack_white);
  const DetectionStats black = ensemble_stats(
      {bb_scaling, bb_filtering, steg}, data.eval_attack_black);

  report::Table table({"Setting", "Acc.", "Prec.", "Rec.", "FAR", "FRR"});
  for (const auto& [label, stats] :
       {std::pair{"White-box ensemble", white},
        std::pair{"Black-box ensemble", black}}) {
    table.add_row({label, report::format_percent(stats.accuracy()),
                   report::format_percent(stats.precision()),
                   report::format_percent(stats.recall()),
                   report::format_percent(stats.far()),
                   report::format_percent(stats.frr())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper reports: white-box 99.9%% acc (FAR 0.2%%, FRR 0.0%%); "
      "black-box 99.8%% acc (FAR 0.2%%, FRR 0.1%%).\n");
}

// ------------------------------------------------------------ figures --

// Figures 8 and 10: MSE and SSIM histograms of benign vs attack training
// images with the white-box threshold marked.
void white_box_figure(const BenchArgs& args, const Method& method,
                      const char* paper) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  struct Row {
    const char* metric;
    double ScoreRow::* member;
    bool log_x;  // benign MSE ~O(10), attack ~O(10^3..10^4)
    int decimals;
  };
  const Row rows[] = {{"MSE", method.mse, true, 2},
                      {"SSIM", method.ssim, false, 4}};
  for (const Row& row : rows) {
    const auto benign = ExperimentData::column(data.train_benign, row.member);
    const auto attack = ExperimentData::column(data.train_attack, row.member);
    const WhiteBoxResult wb = calibrate_white_box(benign, attack);
    report::HistogramOptions options;
    options.bins = 26;
    options.log_x = row.log_x;
    options.threshold = wb.calibration.threshold;
    std::printf("%s(%s) distribution  [threshold %.*f]\n%s\n", row.metric,
                method.pair, row.decimals, wb.calibration.threshold,
                report::render_histogram(benign, attack, options).c_str());
  }
  std::printf("%s\n", paper);
}

// Figures 9 and 11: benign-only MSE and SSIM distributions with the 1/2/3%
// percentile boundaries marked — the black-box calibration view.
void black_box_figure(const BenchArgs& args, const Method& method,
                      const char* paper) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  struct Row {
    const char* metric;
    double ScoreRow::* member;
    bool upper_tail;  // MSE flags high scores, SSIM low ones
    int decimals;
  };
  const Row rows[] = {{"MSE", method.mse, true, 2},
                      {"SSIM", method.ssim, false, 4}};
  for (const Row& row : rows) {
    const auto benign = ExperimentData::column(data.train_benign, row.member);
    const ScoreStats stats = score_stats(benign);
    // The score cutting off `percent` of the benign images on the flagged
    // side.
    auto boundary = [&](double percent) {
      return percentile_of(benign, row.upper_tail ? 100.0 - percent : percent);
    };
    report::HistogramOptions options;
    options.bins = 24;
    options.threshold = boundary(1.0);
    const int d = row.decimals;
    std::printf("benign %s(%s): mean %.*f std %.*f\n%s\n", row.metric,
                method.pair, d, stats.mean, d, stats.stddev,
                report::render_histogram(benign, {}, options).c_str());
    std::printf(
        "percentile boundaries: 1%% -> %.*f, 2%% -> %.*f, 3%% -> %.*f\n\n", d,
        boundary(1.0), d, boundary(2.0), d, boundary(3.0));
  }
  std::printf("%s\n", paper);
}

// Reproduces Figure 8 of the paper (score distributions for the scaling
// detection method in the white-box setting): MSE and SSIM histograms of
// 50/50 (or --n) benign vs attack images with the selected threshold
// marked. Expected shape: two cleanly separated modes per metric.
void fig8_scaling_dist(const BenchArgs& args) {
  white_box_figure(
      args, kScaling,
      "Paper shape: benign and attack modes are disjoint for both metrics; "
      "the paper's thresholds on its datasets were MSE 1714.96 and SSIM "
      "0.61.");
}

// Reproduces Figure 9 of the paper: benign-only MSE and SSIM distributions
// for the scaling detection method, with the 1/2/3% percentile boundaries
// marked. Expected shape: roughly unimodal benign distributions whose tail
// percentiles make good thresholds.
void fig9_scaling_blackbox_dist(const BenchArgs& args) {
  black_box_figure(
      args, kScaling,
      "Paper shape: near-normal benign distributions (their NeurIPS-2017 "
      "MSE mean 218.6, std 217.6; SSIM mean 0.91, std 0.59).");
}

// Reproduces Figure 10 of the paper: white-box score distributions for the
// filtering detection method (2x2 minimum filter), MSE and SSIM, threshold
// marked. Expected shape: separated modes, with somewhat more proximity in
// MSE than the scaling method showed (the paper notes a small overlap).
void fig10_filtering_dist(const BenchArgs& args) {
  white_box_figure(
      args, kFiltering,
      "Paper shape: separable with thresholds MSE 5682.79 and SSIM 0.38 on "
      "its datasets; MSE shows slight class overlap, SSIM separates "
      "cleanly.");
}

// Reproduces Figure 11 of the paper: benign-only filtering-score (2x2 min
// filter) distributions with percentile boundaries — the black-box
// calibration view of the filtering method.
void fig11_filtering_blackbox_dist(const BenchArgs& args) {
  black_box_figure(
      args, kFiltering,
      "Paper shape: near-normal benign distributions (their filtering MSE "
      "mean 1952.32, std 1543.27; SSIM mean 0.74, std 0.11).");
}

// Reproduces Figure 12 of the paper: the CSP (centered spectrum point)
// count distribution for benign vs attack images. Expected shape: almost
// all benign images have exactly 1 CSP; almost all attack images have 2 or
// more — which is why a fixed threshold of 2 works with no calibration.
void fig12_csp_dist(const BenchArgs& args) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  auto tally = [](const std::vector<ScoreRow>& rows) {
    std::map<int, int> counts;
    for (const ScoreRow& row : rows) ++counts[static_cast<int>(row.csp)];
    return counts;
  };
  const auto benign = tally(data.train_benign);
  const auto attack = tally(data.train_attack);

  report::Table table({"CSP count", "benign images", "attack images"});
  int max_csp = 1;
  for (const auto& [k, v] : benign) max_csp = std::max(max_csp, k);
  for (const auto& [k, v] : attack) max_csp = std::max(max_csp, k);
  for (int k = 0; k <= max_csp; ++k) {
    const int b = benign.count(k) ? benign.at(k) : 0;
    const int a = attack.count(k) ? attack.at(k) : 0;
    if (b == 0 && a == 0) continue;
    table.add_row({std::to_string(k), std::to_string(b), std::to_string(a)});
  }
  std::printf("%s\n", table.render().c_str());

  int benign_one = benign.count(1) ? benign.at(1) : 0;
  int attack_multi = 0;
  for (const auto& [k, v] : attack) {
    if (k >= 2) attack_multi += v;
  }
  std::printf(
      "%.1f%% of benign images have exactly 1 CSP; %.1f%% of attack images "
      "have >= 2 CSP.\n",
      100.0 * benign_one / data.train_benign.size(),
      100.0 * attack_multi / data.train_attack.size());
  std::printf(
      "Paper shape: 99.3%% of originals have 1 CSP, 98.2%% of attacks have "
      "more than 1.\n");
}

// Reproduces the paper's threshold-selection figure (Fig. 7 of the paper's
// numbering for the scaling method): the accuracy-vs-candidate-threshold
// curve traced by the white-box search, with the optimum marked. Expected
// shape: a plateau of 100% training accuracy between the two class
// supports, falling off on either side.
void fig14_threshold_search(const BenchArgs& args) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  for (const auto& [label, member] :
       {std::pair{"scaling/MSE", &ScoreRow::scaling_mse},
        std::pair{"scaling/SSIM", &ScoreRow::scaling_ssim}}) {
    const WhiteBoxResult wb = calibrate_white_box(
        ExperimentData::column(data.train_benign, member),
        ExperimentData::column(data.train_attack, member));
    std::printf("%s: best threshold %.4f, training accuracy %.1f%%\n", label,
                wb.calibration.threshold,
                100.0 * wb.calibration.train_accuracy);
    // Down-sample the trace to ~40 printed probes.
    const std::size_t stride = std::max<std::size_t>(1, wb.trace.size() / 40);
    for (std::size_t i = 0; i < wb.trace.size(); i += stride) {
      const ThresholdProbe& probe = wb.trace[i];
      const int bar = static_cast<int>(probe.accuracy * 50.0);
      std::printf("%12.4g | %s %5.1f%%%s\n", probe.threshold,
                  std::string(static_cast<std::size_t>(bar), '#').c_str(),
                  100.0 * probe.accuracy,
                  probe.threshold == wb.calibration.threshold ? "  <-- best"
                                                              : "");
    }
    std::printf("\n");
  }
  std::printf(
      "Paper shape: training accuracy forms a plateau at ~100%% between the "
      "benign and attack score supports; the search picks a midpoint on the "
      "plateau.\n");
}

// Reproduces Appendix Figures 15/16 of the paper: PSNR histograms for the
// scaling and filtering methods, demonstrating the NEGATIVE result that
// PSNR does not separate benign from attack images as well as MSE/SSIM —
// peak errors dominate the ratio. We also print the best achievable
// training accuracy per metric so the gap is quantified, not eyeballed.
void fig15_psnr_overlap(const BenchArgs& args) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  for (const auto& [label, member] :
       {std::pair{"scaling", &ScoreRow::scaling_psnr},
        std::pair{"filtering", &ScoreRow::filtering_psnr}}) {
    const auto benign = ExperimentData::column(data.train_benign, member);
    const auto attack = ExperimentData::column(data.train_attack, member);
    report::HistogramOptions options;
    options.bins = 26;
    std::printf("PSNR histogram, %s method:\n%s\n", label,
                report::render_histogram(benign, attack, options).c_str());
  }

  report::Table table({"Method", "Metric", "Best training accuracy"});
  struct Row {
    const char* method;
    const char* metric;
    double ScoreRow::* member;
  };
  const Row rows[] = {{"scaling", "MSE", &ScoreRow::scaling_mse},
                      {"scaling", "PSNR", &ScoreRow::scaling_psnr},
                      {"filtering", "SSIM", &ScoreRow::filtering_ssim},
                      {"filtering", "PSNR", &ScoreRow::filtering_psnr}};
  for (const Row& row : rows) {
    const double best =
        calibrate_white_box(
            ExperimentData::column(data.train_benign, row.member),
            ExperimentData::column(data.train_attack, row.member))
            .calibration.train_accuracy;
    table.add_row({row.method, row.metric, report::format_percent(best)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape: PSNR's benign and attack histograms overlap heavily, so "
      "the paper does not recommend PSNR for Decamouflage. Note: PSNR is a "
      "monotone transform of MSE per image pair, so its best achievable "
      "accuracy equals MSE's on the same scores; the paper's observed "
      "overlap reflects threshold instability (the decision boundary falls "
      "in a dense region), which is what the histograms show.\n");
}

// ---------------------------------------------------------- ablations --

// The regime-A scenes, sized by the flags, that the ablations and
// extensions craft their own attacks on.
data::SceneParams regime_a_scenes(const BenchArgs& args) {
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = args.config.min_side;
  params.max_side = args.config.max_side;
  return params;
}

// The experiment's white-box attack: its scaler and eps.
attack::AttackOptions white_box_attack(const BenchArgs& args) {
  attack::AttackOptions options;
  options.algo = args.config.white_box_algo;
  options.eps = args.config.attack_eps;
  return options;
}

// Ablation: which rank filter exposes the attack best? The paper's Fig. 4
// observes that the MINIMUM filter reveals the embedded target while
// median and maximum do not (their targets are darker than their carriers
// on average). This command quantifies the choice: best achievable
// training accuracy of the filtering method with min / median / max
// filters across window sizes, on freshly crafted attacks.
void ablation_filters(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);
  data::Rng scene_rng(args.config.seed ^ 0xF117E6ull);
  data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);

  const attack::AttackOptions attack_opts = white_box_attack(args);

  std::vector<Image> benign;
  std::vector<Image> attacks;
  for (int i = 0; i < args.config.n_train; ++i) {
    data::Rng sc = scene_rng.fork();
    data::Rng tc = target_rng.fork();
    benign.push_back(generate_scene(params, sc));
    const Image target = data::generate_target(
        args.config.target_width, args.config.target_height, tc);
    attacks.push_back(
        attack::craft_attack(benign.back(), target, attack_opts).image);
    std::fprintf(stderr, "\r[ablation] crafted %d/%d", i + 1,
                 args.config.n_train);
  }
  std::fprintf(stderr, "\n");

  report::Table table({"Filter", "Window", "Best train acc (MSE)",
                       "Best train acc (SSIM)"});
  for (const RankOp op : {RankOp::Min, RankOp::Median, RankOp::Max}) {
    for (const int window : {2, 3}) {
      std::vector<double> benign_mse, attack_mse, benign_ssim, attack_ssim;
      for (std::size_t i = 0; i < benign.size(); ++i) {
        FilteringDetectorConfig mse_config{window, op, Metric::MSE};
        FilteringDetectorConfig ssim_config{window, op, Metric::SSIM};
        const FilteringDetector mse_det{mse_config};
        const FilteringDetector ssim_det{ssim_config};
        benign_mse.push_back(mse_det.score(benign[i]));
        attack_mse.push_back(mse_det.score(attacks[i]));
        benign_ssim.push_back(ssim_det.score(benign[i]));
        attack_ssim.push_back(ssim_det.score(attacks[i]));
      }
      const double acc_mse =
          calibrate_white_box(benign_mse, attack_mse).calibration
              .train_accuracy;
      const double acc_ssim =
          calibrate_white_box(benign_ssim, attack_ssim).calibration
              .train_accuracy;
      const char* name = op == RankOp::Min
                             ? "minimum"
                             : (op == RankOp::Median ? "median" : "maximum");
      table.add_row({name, std::to_string(window) + "x" + std::to_string(window),
                     report::format_percent(acc_mse),
                     report::format_percent(acc_ssim)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape (Fig. 4): the minimum filter reveals the embedded "
      "target; median/maximum are weaker. (With symmetric bright/dark "
      "targets min and max converge — the paper's targets skew dark.)\n");
}

// Ablation: the PREVENTION defence of Quiring et al. — use a robust
// scaling algorithm (area averaging / wide-support Lanczos) so the attack
// cannot inject target pixels in the first place. For attacks crafted
// against each vulnerable scaler we measure how close the downscale gets
// to the target under (a) the scaler the attack targets and (b) robust
// alternatives. Expected shape: near-zero target error under the targeted
// scaler, large error under area averaging — and a visible quality trade
// (this is the approach whose drawbacks motivate Decamouflage).
void ablation_robust_scaler(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);

  const ScaleAlgo attack_algos[] = {ScaleAlgo::Nearest, ScaleAlgo::Bilinear,
                                    ScaleAlgo::Bicubic};
  const ScaleAlgo eval_algos[] = {ScaleAlgo::Nearest, ScaleAlgo::Bilinear,
                                  ScaleAlgo::Bicubic, ScaleAlgo::Area};

  report::Table table({"Attack crafted for", "Downscaled with",
                       "MSE(scale(A), T)", "attack survives?"});
  for (const ScaleAlgo crafted : attack_algos) {
    data::Rng scene_rng(args.config.seed ^ 0xAB1A7E5ull);
    data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
    std::vector<Image> attacks;
    std::vector<Image> targets;
    attack::AttackOptions options;
    options.algo = crafted;
    options.eps = args.config.attack_eps;
    for (int i = 0; i < args.config.n_train; ++i) {
      data::Rng sc = scene_rng.fork();
      data::Rng tc = target_rng.fork();
      const Image scene = generate_scene(params, sc);
      targets.push_back(data::generate_target(args.config.target_width,
                                              args.config.target_height, tc));
      attacks.push_back(
          attack::craft_attack(scene, targets.back(), options).image);
    }
    for (const ScaleAlgo deployed : eval_algos) {
      double total = 0.0;
      for (std::size_t i = 0; i < attacks.size(); ++i) {
        const Image down =
            resize(attacks[i], args.config.target_width,
                   args.config.target_height, deployed);
        total += mse(down, targets[i]);
      }
      const double avg = total / attacks.size();
      table.add_row({to_string(crafted), to_string(deployed),
                     report::format_double(avg, 1),
                     avg < 100.0 ? "YES (pipeline compromised)"
                                 : "no (target destroyed)"});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: each attack only survives the exact scaler it was crafted "
      "for; INTER_AREA-style averaging destroys every variant — Quiring et "
      "al.'s prevention — at the cost of changing the deployed pipeline, "
      "which is the compatibility drawback Decamouflage avoids.\n");
}

// Histogram-preserving target: the source's own downscale, spatially
// shuffled. Same pixels (same histogram), different image.
Image shuffled_downscale(const Image& source, int tw, int th, ScaleAlgo algo,
                         data::Rng& rng) {
  Image down = resize(source, tw, th, algo).clamp();
  for (int c = 0; c < down.channels(); ++c) {
    auto plane = down.plane(c);
    for (std::size_t i = plane.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.next_int(0, static_cast<int>(i) - 1));
      std::swap(plane[i - 1], plane[j]);
    }
  }
  return down;
}

// Ablation: Xiao et al.'s color-histogram detection suggestion and the
// adaptive attack that defeats it (Quiring et al.'s observation, echoed by
// the paper's related-work discussion). The adaptive attacker picks a
// HISTOGRAM-MATCHED target: a random spatial shuffle of the source's own
// downscale. The content the model sees is destroyed (wrong image), the
// histogram is (nearly) identical — so the histogram detector loses most
// of its signal while Decamouflage's scaling method still fires. Expected
// shape: the histogram AUC drops markedly under the adaptive attack while
// scaling-MSE stays at ~1.0. (The drop is partial rather than total here
// because the QP's minimal-norm perturbation itself leaves a small
// histogram footprint; Quiring et al.'s fully adaptive variant constrains
// that away inside the optimisation.)
void ablation_histogram(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);
  data::Rng scene_rng(args.config.seed ^ 0x6157A6ull);
  data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
  data::Rng shuffle_rng(args.config.seed ^ 0x5BAFF1Eull);

  const attack::AttackOptions attack_opts = white_box_attack(args);

  HistogramDetectorConfig hist_config;
  hist_config.down_width = args.config.target_width;
  hist_config.down_height = args.config.target_height;
  hist_config.algo = args.config.white_box_algo;
  const HistogramDetector hist{hist_config};

  ScalingDetectorConfig scaling_config;
  scaling_config.down_width = args.config.target_width;
  scaling_config.down_height = args.config.target_height;
  scaling_config.down_algo = scaling_config.up_algo =
      args.config.white_box_algo;
  scaling_config.metric = Metric::MSE;
  const ScalingDetector scaling{scaling_config};

  const SteganalysisDetector steg{};

  std::vector<double> hist_benign, hist_plain, hist_adaptive;
  std::vector<double> mse_benign, mse_plain, mse_adaptive;
  std::vector<double> csp_benign, csp_plain, csp_adaptive;
  for (int i = 0; i < args.config.n_train; ++i) {
    data::Rng sc = scene_rng.fork();
    data::Rng tc = target_rng.fork();
    const Image scene = generate_scene(params, sc);
    const Image plain_target = data::generate_target(
        args.config.target_width, args.config.target_height, tc);
    const Image adaptive_target = shuffled_downscale(
        scene, args.config.target_width, args.config.target_height,
        args.config.white_box_algo, shuffle_rng);
    const Image plain =
        attack::craft_attack(scene, plain_target, attack_opts).image;
    const Image adaptive =
        attack::craft_attack(scene, adaptive_target, attack_opts).image;
    hist_benign.push_back(hist.score(scene));
    hist_plain.push_back(hist.score(plain));
    hist_adaptive.push_back(hist.score(adaptive));
    mse_benign.push_back(scaling.score(scene));
    mse_plain.push_back(scaling.score(plain));
    mse_adaptive.push_back(scaling.score(adaptive));
    csp_benign.push_back(steg.score(scene));
    csp_plain.push_back(steg.score(plain));
    csp_adaptive.push_back(steg.score(adaptive));
    std::fprintf(stderr, "\r[ablation] %d/%d", i + 1, args.config.n_train);
  }
  std::fprintf(stderr, "\n");

  // AUC is threshold-free: with small sample counts the white-box search
  // would overfit and overstate the weak baseline.
  auto auc = [](const std::vector<double>& benign,
                const std::vector<double>& attack, Polarity polarity) {
    return roc_curve(benign, attack, polarity).auc;
  };
  report::Table table({"Detector", "Plain attack AUC", "Adaptive attack AUC"});
  table.add_row(
      {"histogram intersection (Xiao)",
       report::format_double(
           auc(hist_benign, hist_plain, Polarity::LowIsAttack), 3),
       report::format_double(
           auc(hist_benign, hist_adaptive, Polarity::LowIsAttack), 3)});
  table.add_row(
      {"Decamouflage scaling/MSE",
       report::format_double(
           auc(mse_benign, mse_plain, Polarity::HighIsAttack), 3),
       report::format_double(
           auc(mse_benign, mse_adaptive, Polarity::HighIsAttack), 3)});
  table.add_row(
      {"Decamouflage steganalysis/CSP",
       report::format_double(
           auc(csp_benign, csp_plain, Polarity::HighIsAttack), 3),
       report::format_double(
           auc(csp_benign, csp_adaptive, Polarity::HighIsAttack), 3)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: the histogram-matched attack degrades the histogram baseline "
      "(its AUC drops below the structural methods') while scaling/MSE "
      "holds at ~1.0 — the residual histogram signal comes from the "
      "perturbation itself, which a fully adaptive attacker (Quiring et "
      "al.: histogram constraints inside the QP) can also remove. CSP "
      "weakens too: a shuffled-downscale target has a flat spectrum, so "
      "its harmonic copies are faint — another reason the paper majority-"
      "votes structural methods instead of trusting any single signal.\n");
}

// Ablation: adaptive attacks against individual Decamouflage methods
// (paper §6 "Considerations for adaptive attacks"). Two adaptive moves:
//
//   1. spectral masking — noise on the pixels the scaler never reads,
//      trying to bury the CSP harmonics. Finding: CSP is unaffected (the
//      harmonics come from the payload pixels themselves) and the noise
//      feeds the other two methods. The attacker gains nothing.
//   2. stealth-budget sweep — shrinking eps / enlarging the solver budget
//      to minimise the footprint. Finding: detection scores barely move;
//      the footprint is structural, not a tuning artefact.
void ablation_adaptive(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);

  ScalingDetectorConfig scaling_config;
  scaling_config.down_width = args.config.target_width;
  scaling_config.down_height = args.config.target_height;
  scaling_config.metric = Metric::MSE;
  const ScalingDetector scaling{scaling_config};
  FilteringDetectorConfig filtering_config;
  filtering_config.metric = Metric::SSIM;
  const FilteringDetector filtering{filtering_config};
  const SteganalysisDetector steg{};

  struct Variant {
    const char* label;
    double eps;
    double noise;
  };
  const Variant variants[] = {
      {"plain eps=2", 2.0, 0.0},
      {"stealthy eps=0.5", 0.5, 0.0},
      {"loose eps=6", 6.0, 0.0},
      {"anti-CSP noise 16", 2.0, 16.0},
      {"anti-CSP noise 40", 2.0, 40.0},
  };

  report::Table table({"Attack variant", "mean scaling MSE",
                       "mean filtering SSIM", "mean CSP", "caught by CSP>=2",
                       "mean SSIM(A,O)"});

  // Benign baseline row for reference.
  {
    data::Rng rng(args.config.seed ^ 0xBE9196ull);
    double sum_mse = 0, sum_fssim = 0, sum_csp = 0, sum_ssim = 0;
    int caught = 0;
    for (int i = 0; i < args.config.n_train; ++i) {
      data::Rng child = rng.fork();
      const Image scene = generate_scene(params, child);
      sum_mse += scaling.score(scene);
      sum_fssim += filtering.score(scene);
      const int csp = steg.count_csp(scene);
      sum_csp += csp;
      caught += csp >= 2 ? 1 : 0;
      sum_ssim += 1.0;
    }
    const double n = args.config.n_train;
    table.add_row({"(benign reference)", report::format_double(sum_mse / n, 1),
                   report::format_double(sum_fssim / n, 3),
                   report::format_double(sum_csp / n, 2),
                   report::format_percent(caught / n),
                   report::format_double(sum_ssim / n, 3)});
  }

  for (const Variant& variant : variants) {
    data::Rng scene_rng(args.config.seed ^ 0xADA97ull);
    data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
    double sum_mse = 0, sum_fssim = 0, sum_csp = 0, sum_ssim = 0;
    int caught = 0;
    for (int i = 0; i < args.config.n_train; ++i) {
      data::Rng sc = scene_rng.fork();
      data::Rng tc = target_rng.fork();
      const Image scene = generate_scene(params, sc);
      const Image target = data::generate_target(
          args.config.target_width, args.config.target_height, tc);
      attack::NoiseMaskOptions options;
      options.base.algo = args.config.white_box_algo;
      options.base.eps = variant.eps;
      options.noise_amplitude = variant.noise;
      options.seed = args.config.seed + static_cast<std::uint64_t>(i);
      const attack::AttackResult result =
          variant.noise > 0.0
              ? attack::noise_masked_attack(scene, target, options)
              : attack::craft_attack(scene, target, options.base);
      sum_mse += scaling.score(result.image);
      sum_fssim += filtering.score(result.image);
      const int csp = steg.count_csp(result.image);
      sum_csp += csp;
      caught += csp >= 2 ? 1 : 0;
      sum_ssim += result.report.source_ssim;
      std::fprintf(stderr, "\r[adaptive] %s %d/%d        ", variant.label,
                   i + 1, args.config.n_train);
    }
    const double n = args.config.n_train;
    table.add_row({variant.label, report::format_double(sum_mse / n, 1),
                   report::format_double(sum_fssim / n, 3),
                   report::format_double(sum_csp / n, 2),
                   report::format_percent(caught / n),
                   report::format_double(sum_ssim / n, 3)});
  }
  std::fprintf(stderr, "\n");
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: every variant keeps scaling-MSE orders of magnitude above "
      "benign and CSP >= 2 on (almost) all images; the anti-CSP noise "
      "variants only lose visual stealth. Adaptive moves against one "
      "method do not transfer into evasion of the ensemble (paper §6).\n");
}

// Ablation: detection (Decamouflage) vs prevention (Quiring et al.'s
// image reconstruction). The reconstruction defence cleanses exactly the
// pixels an attacker could control — neutralising every attack — but it
// rewrites those pixels in BENIGN images too, degrading what the model
// sees. This command quantifies both sides of that trade, reproducing the
// paper's motivation (Section I) for a detection-only defence.
void ablation_prevention_quality(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);

  ReconstructionConfig defense;
  defense.target_width = args.config.target_width;
  defense.target_height = args.config.target_height;
  defense.algo = args.config.white_box_algo;

  const attack::AttackOptions attack_options = white_box_attack(args);

  data::Rng scene_rng(args.config.seed ^ 0x9E4A71ull);
  data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
  double attack_payload_before = 0.0;  // MSE(scale(A), T) without defence
  double attack_payload_after = 0.0;   // ... with defence
  double benign_view_shift = 0.0;      // MSE(scale(O), scale(defend(O)))
  double benign_image_ssim = 0.0;      // SSIM(O, defend(O))
  for (int i = 0; i < args.config.n_train; ++i) {
    data::Rng sc = scene_rng.fork();
    data::Rng tc = target_rng.fork();
    const Image scene = generate_scene(params, sc);
    const Image target = data::generate_target(args.config.target_width,
                                               args.config.target_height, tc);
    const attack::AttackResult result =
        attack::craft_attack(scene, target, attack_options);

    const Image defended_attack =
        reconstruct_critical_pixels(result.image, defense);
    attack_payload_before +=
        mse(resize(result.image, defense.target_width, defense.target_height,
                   defense.algo),
            target);
    attack_payload_after +=
        mse(resize(defended_attack, defense.target_width,
                   defense.target_height, defense.algo),
            target);

    const Image defended_benign = reconstruct_critical_pixels(scene, defense);
    benign_view_shift +=
        mse(resize(scene, defense.target_width, defense.target_height,
                   defense.algo),
            resize(defended_benign, defense.target_width,
                   defense.target_height, defense.algo));
    benign_image_ssim += ssim(scene, defended_benign);
    std::fprintf(stderr, "\r[prevention] %d/%d", i + 1, args.config.n_train);
  }
  std::fprintf(stderr, "\n");

  const double n = args.config.n_train;
  report::Table table({"Quantity", "Value", "Reading"});
  table.add_row({"MSE(scale(A), T), no defence",
                 report::format_double(attack_payload_before / n, 1),
                 "attack works"});
  table.add_row({"MSE(scale(A), T), reconstructed",
                 report::format_double(attack_payload_after / n, 1),
                 "payload destroyed"});
  table.add_row({"MSE(scale(O), scale(defend(O)))",
                 report::format_double(benign_view_shift / n, 1),
                 "benign model input CHANGED"});
  table.add_row({"SSIM(O, defend(O))",
                 report::format_double(benign_image_ssim / n, 4),
                 "benign image quality cost"});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: reconstruction prevents the attack but taxes every benign "
      "input (the paper's Section I critique); Decamouflage detects with "
      "zero modification of accepted images.\n");
}

// --------------------------------------------------------- extensions --

// Extension: threshold-free comparison of every detector/metric via ROC
// AUC, computed on the cached experiment. The paper compares methods at
// chosen thresholds; AUC shows the same ordering holds across ALL
// thresholds, and quantifies how far ahead the structural metrics are of
// the PSNR/histogram baselines.
void extension_roc(const BenchArgs& args) {
  bench::print_config(args);
  const ExperimentData data = bench::load_data(args);

  struct Row {
    const char* label;
    double ScoreRow::* member;
    Polarity polarity;
  };
  const Row rows[] = {
      {"scaling/MSE", &ScoreRow::scaling_mse, Polarity::HighIsAttack},
      {"scaling/SSIM", &ScoreRow::scaling_ssim, Polarity::LowIsAttack},
      {"scaling/PSNR", &ScoreRow::scaling_psnr, Polarity::LowIsAttack},
      {"filtering/MSE", &ScoreRow::filtering_mse, Polarity::HighIsAttack},
      {"filtering/SSIM", &ScoreRow::filtering_ssim, Polarity::LowIsAttack},
      {"filtering/PSNR", &ScoreRow::filtering_psnr, Polarity::LowIsAttack},
      {"steganalysis/CSP", &ScoreRow::csp, Polarity::HighIsAttack},
      {"histogram (Xiao)", &ScoreRow::histogram, Polarity::LowIsAttack},
  };
  report::Table table({"Detector/metric", "AUC (calibration set)",
                       "AUC (unseen, white-box)", "AUC (unseen, black-box)"});
  for (const Row& row : rows) {
    const double auc_train =
        roc_curve(ExperimentData::column(data.train_benign, row.member),
                  ExperimentData::column(data.train_attack, row.member),
                  row.polarity)
            .auc;
    const double auc_white =
        roc_curve(ExperimentData::column(data.eval_benign, row.member),
                  ExperimentData::column(data.eval_attack_white, row.member),
                  row.polarity)
            .auc;
    const double auc_black =
        roc_curve(ExperimentData::column(data.eval_benign, row.member),
                  ExperimentData::column(data.eval_attack_black, row.member),
                  row.polarity)
            .auc;
    table.add_row({row.label, report::format_double(auc_train, 4),
                   report::format_double(auc_white, 4),
                   report::format_double(auc_black, 4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: the six Decamouflage method/metric combinations sit at or "
      "near AUC 1.0 on every split; the baselines are the weakest rows.\n");
}

// Extension: attack fragility under benign geometric jitter. The payload
// of an image-scaling attack sits at exact sampling-grid positions, so a
// transformation that SHIFTS the grid — a 1-2 px crop — destroys it while
// barely affecting benign content. A horizontal flip, by contrast, maps
// the grid onto itself (our kernels are symmetric), so the payload
// survives in mirrored form: reflection is NOT a defence. Grid-shifting
// jitter is the zero-cost hardening step a service can run IN ADDITION to
// Decamouflage, and the same grid ownership is why attackers cannot
// jitter their way around the steganalysis detector.
void extension_fragility(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);

  struct Jitter {
    const char* label;
    Image (*apply)(const Image&);
  };
  const Jitter jitters[] = {
      {"none", +[](const Image& img) { return img; }},
      {"crop 1px (top-left)",
       +[](const Image& img) {
         return crop(img, 1, 1, img.width() - 1, img.height() - 1);
       }},
      {"crop 2px (centered)",
       +[](const Image& img) {
         return crop(img, 2, 2, img.width() - 4, img.height() - 4);
       }},
      {"horizontal flip", +[](const Image& img) {
         return flip_horizontal(img);
       }},
  };

  const attack::AttackOptions options = white_box_attack(args);

  report::Table table({"Jitter", "mean MSE(scale(jitter(A)), T)",
                       "mean MSE(scale(jitter(O)), scale(O))",
                       "payload survives?"});
  for (const Jitter& jitter : jitters) {
    data::Rng scene_rng(args.config.seed ^ 0xF6A617ull);
    data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
    double attack_error = 0.0;
    double benign_shift = 0.0;
    for (int i = 0; i < args.config.n_train; ++i) {
      data::Rng sc = scene_rng.fork();
      data::Rng tc = target_rng.fork();
      const Image scene = generate_scene(params, sc);
      const Image target = data::generate_target(
          args.config.target_width, args.config.target_height, tc);
      const attack::AttackResult result =
          attack::craft_attack(scene, target, options);
      // For the flipped case, compare against the flipped target (the
      // content is mirrored, not destroyed, for benign images).
      const Image jittered_attack = jitter.apply(result.image);
      const Image attack_view =
          resize(jittered_attack, args.config.target_width,
                 args.config.target_height, options.algo);
      const bool is_flip = std::string(jitter.label) == "horizontal flip";
      attack_error += mse(attack_view,
                          is_flip ? flip_horizontal(target) : target);
      const Image benign_view = resize(scene, args.config.target_width,
                                       args.config.target_height,
                                       options.algo);
      const Image jittered_benign_view =
          resize(jitter.apply(scene), args.config.target_width,
                 args.config.target_height, options.algo);
      benign_shift += mse(is_flip ? flip_horizontal(jittered_benign_view)
                                  : jittered_benign_view,
                          benign_view);
      std::fprintf(stderr, "\r[fragility] %s %d/%d       ", jitter.label,
                   i + 1, args.config.n_train);
    }
    const double n = args.config.n_train;
    table.add_row({jitter.label, report::format_double(attack_error / n, 1),
                   report::format_double(benign_shift / n, 1),
                   attack_error / n < 100.0 ? "YES" : "no"});
  }
  std::fprintf(stderr, "\n");
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: a 1-2px crop wrecks the payload (huge MSE to the target) "
      "while the benign view shifts only slightly; the horizontal flip "
      "maps the symmetric sampling grid onto itself, so the payload "
      "survives mirrored — grid-SHIFTING jitter is the effective hardening "
      "step. The sampling grid belongs to the service, not the attacker.\n");
}

// Extension: benign post-processing robustness. Real upload pipelines
// recompress (JPEG), denoise (blur) and perturb images before the CNN ever
// sees them. Two questions matter for deploying Decamouflage:
//
//   1. Does benign post-processing push BENIGN images over the detection
//      thresholds (spurious FRR)? It must not, or every recompressed
//      upload gets rejected.
//   2. Does the ATTACK survive the same post-processing? Empirically YES
//      for moderate recompression (the payload degrades gracefully, like
//      ordinary content) — recompression is NOT a defence; only
//      aggressive quality loss or blur dissolves the payload. Detection
//      therefore stays necessary even behind lossy upload pipelines.
void extension_postprocessing(const BenchArgs& args) {
  bench::print_config(args);
  const data::SceneParams params = regime_a_scenes(args);

  ScalingDetectorConfig scaling_config;
  scaling_config.down_width = args.config.target_width;
  scaling_config.down_height = args.config.target_height;
  scaling_config.metric = Metric::MSE;
  const ScalingDetector scaling{scaling_config};
  const SteganalysisDetector steg{};

  struct Post {
    const char* label;
    Image (*apply)(const Image&);
  };
  const Post posts[] = {
      {"none", +[](const Image& img) { return img; }},
      {"JPEG q90", +[](const Image& img) { return jpeg_roundtrip(img, 90); }},
      {"JPEG q60", +[](const Image& img) { return jpeg_roundtrip(img, 60); }},
      {"JPEG q10", +[](const Image& img) { return jpeg_roundtrip(img, 10); }},
      {"gaussian blur 0.8",
       +[](const Image& img) { return gaussian_blur(img, 0.8); }},
  };

  const attack::AttackOptions attack_options = white_box_attack(args);

  report::Table table({"Post-processing", "benign scaling MSE",
                       "benign CSP>1 rate", "attack payload MSE",
                       "payload survives?"});
  for (const Post& post : posts) {
    data::Rng scene_rng(args.config.seed ^ 0x90573ull);
    data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
    double benign_score = 0.0;
    int benign_csp_multi = 0;
    double payload_error = 0.0;
    for (int i = 0; i < args.config.n_train; ++i) {
      data::Rng sc = scene_rng.fork();
      data::Rng tc = target_rng.fork();
      const Image scene = generate_scene(params, sc);
      const Image target = data::generate_target(
          args.config.target_width, args.config.target_height, tc);
      const Image processed_benign = post.apply(scene);
      benign_score += scaling.score(processed_benign);
      if (steg.count_csp(processed_benign) > 1) ++benign_csp_multi;
      const attack::AttackResult result =
          attack::craft_attack(scene, target, attack_options);
      const Image processed_attack = post.apply(result.image);
      payload_error += mse(resize(processed_attack, args.config.target_width,
                                  args.config.target_height,
                                  attack_options.algo),
                           target);
      std::fprintf(stderr, "\r[postproc] %s %d/%d     ", post.label, i + 1,
                   args.config.n_train);
    }
    const double n = args.config.n_train;
    table.add_row({post.label, report::format_double(benign_score / n, 2),
                   report::format_percent(benign_csp_multi / n),
                   report::format_double(payload_error / n, 1),
                   payload_error / n < 100.0 ? "YES" : "no"});
  }
  std::fprintf(stderr, "\n");
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: benign scores stay orders of magnitude below the attack "
      "regime (no spurious rejections from recompression), while the "
      "attack payload survives moderate JPEG and only dissolves at "
      "aggressive quality loss — recompression alone is NOT a defence, "
      "which is why detection is needed even behind lossy pipelines.\n");
}

// Extension: the scale-ratio dimension. The attacker's footprint shrinks
// quadratically with the downscale ratio (bilinear at ratio r touches
// ~(2/r)^2 of the pixels), so larger source images make stealthier attacks
// — while every Decamouflage score keeps its orders-of-magnitude margin.
// This quantifies the trade the paper's intro sketches (800x600 sources vs
// 224 inputs) and shows detection quality is ratio-independent.
void extension_ratio(const BenchArgs& args) {
  bench::print_config(args);
  // Eight scenes per ratio unless --n or --quick set the count; the banner
  // keeps showing the standard split size.
  const int per_ratio = args.n || args.quick ? args.config.n_train : 8;

  constexpr int kTarget = 64;
  const SteganalysisDetector steg{};
  FilteringDetectorConfig filtering_config;
  filtering_config.metric = Metric::SSIM;
  const FilteringDetector filtering{filtering_config};

  report::Table table({"Ratio", "Source px", "Critical fraction",
                       "mean SSIM(A,O)", "benign/attack scaling MSE",
                       "mean CSP"});
  for (const int ratio : {2, 3, 4, 6, 8}) {
    const int side = kTarget * ratio;
    data::SceneParams params = data::scene_params(data::Regime::A);
    params.min_side = params.max_side = side;
    ScalingDetectorConfig scaling_config;
    scaling_config.down_width = scaling_config.down_height = kTarget;
    scaling_config.metric = Metric::MSE;
    const ScalingDetector scaling{scaling_config};

    data::Rng scene_rng(args.config.seed ^ (0x9A710ull + ratio));
    data::Rng target_rng(args.config.seed ^ 0x7A63E7ull);
    double sum_ssim = 0, sum_benign = 0, sum_attack = 0, sum_csp = 0;
    for (int i = 0; i < per_ratio; ++i) {
      data::Rng sc = scene_rng.fork();
      data::Rng tc = target_rng.fork();
      const Image scene = generate_scene(params, sc);
      const Image target = data::generate_target(kTarget, kTarget, tc);
      const attack::AttackOptions options = white_box_attack(args);
      const attack::AttackResult result =
          attack::craft_attack(scene, target, options);
      sum_ssim += result.report.source_ssim;
      sum_benign += scaling.score(scene);
      sum_attack += scaling.score(result.image);
      sum_csp += steg.score(result.image);
      std::fprintf(stderr, "\r[ratio %d] %d/%d   ", ratio, i + 1, per_ratio);
    }
    const double n = per_ratio;
    const double fraction = attack::critical_fraction(
        side, side, kTarget, kTarget, args.config.white_box_algo);
    char margin[64];
    std::snprintf(margin, sizeof(margin), "%.1f / %.0f", sum_benign / n,
                  sum_attack / n);
    table.add_row({std::to_string(ratio) + "x",
                   std::to_string(side) + "x" + std::to_string(side),
                   report::format_percent(fraction),
                   report::format_double(sum_ssim / n, 3), margin,
                   report::format_double(sum_csp / n, 1)});
  }
  std::fprintf(stderr, "\n");
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape: SSIM(A,O) climbs with the ratio (stealthier attacks, smaller "
      "critical fraction) while the benign/attack scaling-MSE margin and "
      "the CSP count stay decisive at every ratio — detection does not "
      "depend on the attacker's geometry.\n");
}

// Extension: the ATTACKER's run-time cost. The paper measures the
// defender's overhead (Table 7); the other side of the ledger is what
// crafting an attack costs — the nearest-neighbour closed form is
// instantaneous while the QP-based variants pay per pixel column/row, and
// the adaptive variants (attack/adaptive.h) pay extra on top: the off-grid
// spread re-reads the coefficient matrices, the JPEG-robust loop multiplies
// the QP cost by its round budget. Useful for sizing both red-team tooling
// and the plausibility of high-volume poisoning campaigns.
//
// Runs on the shared micro harness (min-iteration ns/pixel over a fixed
// scene, seed 11) instead of the experiment config, so its banner is
// followed by the scene line rather than the config line.
void extension_runtime_attack(const BenchArgs& args) {
  // Fixed geometry per mode, mirroring the historical google-benchmark
  // setup: a 448^2 scene hiding a 112^2 payload (192^2 / 48^2 in quick).
  const int side = args.quick ? 192 : 448;
  const int target_side = args.quick ? 48 : 112;
  const double budget_ms = args.quick ? 50.0 : 400.0;

  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = side;
  data::Rng scene_rng(11);
  const Image source = generate_scene(params, scene_rng);
  data::Rng target_rng(12);
  const Image target = data::generate_target(target_side, target_side,
                                             target_rng);
  const std::size_t px = source.plane_size() * source.channels();

  std::printf("scene %dx%dx%d (seed 11), target %dx%d (seed 12)%s\n\n",
              source.width(), source.height(), source.channels(),
              target.width(), target.height(), args.quick ? " [quick]" : "");

  std::vector<bench::micro::BenchResult> results;
  // Crafting a QP attack on the full scene costs seconds, not micros —
  // min_iters=1 keeps each entry at warm-up + one measured run minimum.
  auto bench = [&](const std::string& name,
                   const std::function<void()>& fn) {
    results.push_back(
        bench::micro::run_bench(name, px, budget_ms, fn, /*min_iters=*/1));
    bench::micro::print_result(results.back());
  };

  for (const ScaleAlgo algo :
       {ScaleAlgo::Nearest, ScaleAlgo::Bilinear, ScaleAlgo::Bicubic}) {
    attack::AttackOptions options;
    options.algo = algo;
    options.eps = 2.0;
    bench(std::string("attack/craft/") + to_string(algo),
          [&] { (void)attack::craft_attack(source, target, options); });
  }

  // Adaptive surcharges on the bilinear base attack.
  attack::AttackOptions base;
  base.eps = 2.0;
  const Image plain = attack::craft_attack(source, target, base).image;
  bench("attack/adaptive/offgrid_spread", [&] {
    (void)attack::spread_off_grid(plain, target.width(), target.height(),
                                  base.algo, 0.5);
  });
  bench("attack/adaptive/noise_mask", [&] {
    attack::NoiseMaskOptions options;
    options.base = base;
    (void)attack::noise_masked_attack(source, target, options);
  });
}

// ------------------------------------------------------ command table --

struct Command {
  const char* name;
  const char* title;  // printed as the banner "=== <title> ==="
  int default_n;      // training images unless --n or --quick chose them
  void (*run)(const BenchArgs&);
};

constexpr int kStandard = bench::kStandardImages;

constexpr Command kCommands[] = {
    {"table2_scaling_whitebox", "Table 2: scaling detection, white-box",
     kStandard, table2_scaling_whitebox},
    {"table3_scaling_blackbox", "Table 3: scaling detection, black-box",
     kStandard, table3_scaling_blackbox},
    {"table4_filtering_whitebox", "Table 4: filtering detection, white-box",
     kStandard, table4_filtering_whitebox},
    {"table5_filtering_blackbox", "Table 5: filtering detection, black-box",
     kStandard, table5_filtering_blackbox},
    {"table6_steganalysis", "Table 6: steganalysis detection (CSP)",
     kStandard, table6_steganalysis},
    {"table8_ensemble", "Table 8: Decamouflage ensemble (majority vote)",
     kStandard, table8_ensemble},
    {"fig8_scaling_dist",
     "Figure 8: scaling-detection score distributions (white-box)",
     kStandard, fig8_scaling_dist},
    {"fig9_scaling_blackbox_dist",
     "Figure 9: benign scaling-score distributions (black-box)", kStandard,
     fig9_scaling_blackbox_dist},
    {"fig10_filtering_dist",
     "Figure 10: filtering-detection score distributions (white-box)",
     kStandard, fig10_filtering_dist},
    {"fig11_filtering_blackbox_dist",
     "Figure 11: benign filtering-score distributions (black-box)",
     kStandard, fig11_filtering_blackbox_dist},
    {"fig12_csp_dist", "Figure 12: CSP count distributions", kStandard,
     fig12_csp_dist},
    {"fig14_threshold_search",
     "Figure 14 (threshold selection): accuracy vs candidate threshold",
     kStandard, fig14_threshold_search},
    {"fig15_psnr_overlap",
     "Figures 15/16 (appendix): PSNR as a detection metric", kStandard,
     fig15_psnr_overlap},
    // Fresh crafting per configuration is expensive: the commands below
    // that craft their own attacks default to fewer images than the tables
    // (extension_ratio picks its per-ratio count itself).
    {"ablation_filters",
     "Ablation: rank-filter choice for filtering detection", 24,
     ablation_filters},
    {"ablation_robust_scaler",
     "Ablation: robust-scaler prevention (Quiring et al.)", 16,
     ablation_robust_scaler},
    {"ablation_histogram",
     "Ablation: histogram baseline vs the histogram-matched adaptive attack",
     20, ablation_histogram},
    {"ablation_adaptive", "Ablation: adaptive attacks vs individual methods",
     16, ablation_adaptive},
    {"ablation_prevention_quality",
     "Ablation: prevention via image reconstruction (Quiring et al.)", 12,
     ablation_prevention_quality},
    {"extension_roc", "Extension: ROC/AUC across detectors and metrics",
     kStandard, extension_roc},
    {"extension_fragility",
     "Extension: attack fragility under geometric jitter", 16,
     extension_fragility},
    {"extension_postprocessing", "Extension: post-processing robustness", 12,
     extension_postprocessing},
    {"extension_ratio",
     "Extension: attack stealth and detection vs scale ratio", kStandard,
     extension_ratio},
    {"extension_runtime_attack", "Extension: attack crafting run-time",
     kStandard, extension_runtime_attack},
};

void print_commands() {
  std::fprintf(stderr,
               "usage: paper <command> [--n N] [--seed S] [--quick] "
               "[--no-cache] [--threads N] [--manifest F] [--no-manifest]\n"
               "commands:\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "  %-30s %s\n", command.name, command.title);
  }
  std::fprintf(stderr, "  %-30s %s\n", "all",
               "every command above, in this order");
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "";
  const bool all = std::strcmp(name, "all") == 0;
  const Command* chosen = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return std::strcmp(name, c.name) == 0; });
  if (!all && chosen == std::end(kCommands)) {
    print_commands();
    return 2;
  }

  const BenchArgs args = bench::parse_args(argc - 1, argv + 1);
  for (const Command& command : kCommands) {
    if (!all && &command != chosen) continue;
    std::printf("=== %s ===\n", command.title);
    command.run(bench::with_default_count(args, command.default_n));
  }

  if (!args.manifest_path.empty()) {
    bench::manifest::RunManifest manifest;
    manifest.binary = "paper";
    manifest.argv.assign(argv + 1, argv + argc);
    manifest.quick = args.quick;
    manifest.seed = args.config.seed;
    manifest.image_width = args.config.target_width;
    manifest.image_height = args.config.target_height;
    if (bench::manifest::write_manifest(manifest, args.manifest_path)) {
      std::fprintf(stderr, "wrote run manifest %s\n",
                   args.manifest_path.c_str());
    }
  }
  return 0;
}
