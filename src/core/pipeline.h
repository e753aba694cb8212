// End-to-end experiment pipeline shared by the `paper` table and figure
// commands (bench/paper.cpp).
//
// One experiment = the paper's two-stage protocol:
//   stage 1  generate the calibration dataset (regime A stand-in for the
//            NeurIPS-2017 images), craft attack images, score everything;
//   stage 2  generate the UNSEEN evaluation dataset (regime B stand-in for
//            Caltech-256), craft attacks two ways — with the white-box
//            (known) scaler and with a mixed black-box scaler pool — and
//            score everything.
//
// Scoring runs the full battery once per image, sharing the expensive
// intermediates (downscale, spectrum) across metrics, and
// the whole result is cached on disk as TSV keyed by a config hash: the
// first bench to run pays the generation cost, the rest reuse it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/filtering_detector.h"
#include "core/histogram_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "imaging/scale.h"

namespace decam::core {

struct ExperimentConfig {
  int n_train = 60;          // images per class, calibration set
  int n_eval = 60;           // images per class, evaluation set
  int target_width = 112;    // CNN input geometry
  int target_height = 112;
  int min_side = 320;        // scene geometry bounds (both regimes share
  int max_side = 640;        //   these so runtimes stay laptop-scale)
  ScaleAlgo white_box_algo = ScaleAlgo::Bilinear;  // attacker's known scaler
  double attack_eps = 2.0;   // allowed |scale(A)-T| per pixel
  std::uint64_t seed = 42;

  /// Stable identity of this configuration (cache key component).
  std::string cache_key() const;
};

/// Full score battery for one image. Sharing the downscale and spectrum
/// across metrics, and reducing each derived image as it is produced, is
/// what keeps the pipeline fast.
struct ScoreRow {
  double scaling_mse = 0.0;
  double scaling_ssim = 0.0;
  double scaling_psnr = 0.0;     // appendix: shown NOT to separate
  double filtering_mse = 0.0;
  double filtering_ssim = 0.0;
  double filtering_psnr = 0.0;   // appendix
  double csp = 0.0;
  double histogram = 0.0;        // Xiao's rejected baseline
};

/// Per-attack-image quality diagnostics (from attack/scale_attack.h).
struct AttackQualityRow {
  double downscale_linf = 0.0;
  double source_ssim = 0.0;
};

struct ExperimentData {
  ExperimentConfig config;
  std::vector<ScoreRow> train_benign;
  std::vector<ScoreRow> train_attack;        // white-box scaler
  std::vector<ScoreRow> eval_benign;
  std::vector<ScoreRow> eval_attack_white;   // crafted with the known scaler
  std::vector<ScoreRow> eval_attack_black;   // crafted with a mixed pool
  std::vector<AttackQualityRow> attack_quality;  // eval white-box attacks

  /// Projects one score column out of a row set.
  static std::vector<double> column(const std::vector<ScoreRow>& rows,
                                    double ScoreRow::* member);
};

/// The fixed detector list that fills a ScoreRow: the paper's three methods
/// and Xiao's histogram baseline, configured from an ExperimentConfig (CNN
/// geometry, deployed pre-processing scaler, 2x2 minimum filter) and scored
/// over one shared context through the detectors' own stage lookup.
class Battery {
 public:
  explicit Battery(const ExperimentConfig& config);

  /// Builds an AnalysisContext from context_spec() and scores it.
  ScoreRow score(const Image& input) const;

  /// Scores a context, materialising the stages each member needs; a
  /// member the context's spec does not cover scores a private context.
  ScoreRow score(AnalysisContext& context) const;

  /// The stages the members consume: the round trip's downscale to the
  /// CNN geometry, the 2x2 minimum filter, the half-plane log spectrum.
  AnalysisContextSpec context_spec() const;

 private:
  ScalingDetector scaling_;
  FilteringDetector filtering_;
  SteganalysisDetector steganalysis_;
  HistogramDetector histogram_;
};

/// Runs (or loads from cache) the full experiment. `cache_dir` empty
/// disables caching. Progress lines go to stderr when `verbose`.
ExperimentData run_experiment(const ExperimentConfig& config,
                              const std::filesystem::path& cache_dir,
                              bool verbose = true);

/// Cache location honouring $DECAM_CACHE_DIR, defaulting to
/// <current_path>/decam_cache.
std::filesystem::path default_cache_dir();

/// (De)serialisation, exposed for tests.
void save_experiment(const ExperimentData& data,
                     const std::filesystem::path& file);
std::optional<ExperimentData> load_experiment(
    const ExperimentConfig& config, const std::filesystem::path& file);

}  // namespace decam::core
