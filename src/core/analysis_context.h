// AnalysisContext — the expensive per-image intermediates every detection
// method reads, computed through an explicit staged analysis plan and
// shared (DESIGN.md §8, §11).
//
// Every detector scores through one: Detector::score(const Image&) builds a
// context for that detector alone, while the ensemble and the experiment
// battery build one context per input image (on its own thread — no hidden
// global caches) and score all their members against it.
//
// Staging: the spec expands to an ordered plan of stages (analysis_plan():
// round trip, rank filter, spectrum). The round-trip stage holds the
// downscale, and the reductions stream the upscale back from it row by row
// (imaging/scale.h ResizeRows); a Min/Max filter stage holds nothing, its
// reductions streaming the filtered rows from the input (imaging/filter.h
// RankRows), and only a Median stage keeps its plane. So no
// full-resolution round trip or min/max-filtered plane is ever stored.
// An Eager context (the default) materialises every planned stage in the
// constructor. A Deferred context records the spec and materialises a
// stage the first time ensure(stage) is called — the short-circuit
// ensemble vote uses this so a detector skipped by an already-decided
// majority never pays for its intermediates. ensure() is non-const and
// must be called before the const accessors; accessors never build behind
// the caller's back.
//
// Ownership: the context borrows `input` (non-owning pointer) and owns the
// downscale, a Median's plane and the spectrum stage. Keep the input alive
// for the context's lifetime; contexts are scoped to scoring one image and
// are neither copied nor moved (Image is value-semantic, so copying would
// duplicate planes).
//
// Config matching: intermediates are only valid for the spec they were built
// with. A detector scores a shared context only when the context's spec
// covers() what its prime() declares, and otherwise scores a private context
// over the same input — correctness never depends on the spec lining up.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "imaging/filter.h"
#include "imaging/image.h"
#include "imaging/scale.h"
#include "signal/spectrum.h"

namespace decam::core {

/// What to precompute. Defaults request nothing; detectors extend a spec via
/// Detector::prime(), and the ensemble and the battery prime one spec for
/// all their members.
struct AnalysisContextSpec {
  int down_width = 0;   // > 0 enables the downscale
  int down_height = 0;
  ScaleAlgo down_algo = ScaleAlgo::Bilinear;  // victim pipeline's scaler
  int filter_window = 0;  // > 0 enables the rank-filter stage
  RankOp filter_op = RankOp::Min;
  bool spectrum = false;  // half-plane log spectrum (steganalysis)

  /// True when a context built from this spec holds every intermediate
  /// `need` requests, with the same parameters.
  bool covers(const AnalysisContextSpec& need) const;
};

/// One stage of the analysis plan.
enum class AnalysisStage { RoundTrip, Filter, Spectrum };

const char* to_string(AnalysisStage stage);

/// The ordered stages `spec` requests (build order).
std::vector<AnalysisStage> analysis_plan(const AnalysisContextSpec& spec);

class AnalysisContext {
 public:
  enum class Build {
    Eager,     // materialise every planned stage in the constructor
    Deferred,  // record the plan; stages build on first ensure()
  };

  /// Builds the stages `spec` requests on the calling thread (all of them
  /// when `build` is Eager, none yet when Deferred). Build cost is recorded
  /// into the `context/*` registry histograms as each stage materialises.
  AnalysisContext(const Image& input, const AnalysisContextSpec& spec,
                  Build build = Build::Eager);

  /// Releases this context's contribution to the live-bytes gauge
  /// (`mem/analysis_context_bytes` — the downscales, Median planes and
  /// spectrum stages of every context currently alive, across threads).
  ~AnalysisContext();

  AnalysisContext(AnalysisContext&&) = delete;
  AnalysisContext& operator=(AnalysisContext&&) = delete;
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const Image& input() const { return *input_; }
  const AnalysisContextSpec& spec() const { return spec_; }

  /// Materialises one stage (no-op when already built or when the spec
  /// never requested it). Deferred contexts call this — directly or
  /// through Detector::score(AnalysisContext&) — before the accessors.
  void ensure(AnalysisStage stage);

  /// The pipeline's view: input resized to (down_width, down_height). A
  /// round-trip reduction streams its upscale from it (ResizeRows).
  const Image& downscaled() const;
  /// The Median-filtered input (filter_window). A Min or Max filter stage
  /// keeps no plane: its reductions stream RankRows over input().
  const Image& filtered() const;
  /// The input's spectrum stage: the log magnitudes of DFT columns
  /// 0..w/2 and their range (signal/spectrum.h), which the steganalysis
  /// detector reads at centered positions. No shifted, mirrored or
  /// normalised plane is stored.
  const HalfSpectrum& spectrum() const;

 private:
  void build_round_trip();
  void build_filter();
  void build_spectrum();
  void add_bytes(std::uint64_t bytes);

  const Image* input_;
  AnalysisContextSpec spec_;
  std::optional<Image> downscaled_;
  bool filter_built_ = false;
  std::optional<Image> filtered_;  // a Median's plane
  std::optional<HalfSpectrum> spectrum_;
  std::uint64_t bytes_ = 0;  // this context's share of the live-bytes gauge
};

}  // namespace decam::core
