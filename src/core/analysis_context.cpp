#include "core/analysis_context.h"

#include <atomic>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "signal/spectrum.h"

namespace decam::core {
namespace {

// Derived-image bytes of every AnalysisContext currently alive, across all
// threads — each context adds its share at construction and removes it on
// destruction, so sampling is one relaxed load.
std::atomic<std::uint64_t> g_context_bytes{0};

std::uint64_t image_bytes(const std::optional<Image>& image) {
  return image.has_value() ? image->size() * sizeof(float) : 0;
}

bool wants_downscale(const AnalysisContextSpec& spec) {
  return spec.down_width > 0 && spec.down_height > 0;
}

}  // namespace

const char* to_string(AnalysisStage stage) {
  switch (stage) {
    case AnalysisStage::RoundTrip: return "round_trip";
    case AnalysisStage::Filter: return "filter";
    case AnalysisStage::Spectrum: return "spectrum";
  }
  return "?";
}

bool AnalysisContextSpec::covers(const AnalysisContextSpec& need) const {
  const bool downscale =
      !wants_downscale(need) ||
      (down_width == need.down_width && down_height == need.down_height &&
       down_algo == need.down_algo &&
       (!need.up_algo || up_algo == need.up_algo));
  const bool filter = need.filter_window <= 0 ||
                      (filter_window == need.filter_window &&
                       filter_op == need.filter_op);
  return downscale && filter && (spectrum || !need.spectrum);
}

std::vector<AnalysisStage> analysis_plan(const AnalysisContextSpec& spec) {
  std::vector<AnalysisStage> plan;
  if (wants_downscale(spec)) plan.push_back(AnalysisStage::RoundTrip);
  if (spec.filter_window > 0) plan.push_back(AnalysisStage::Filter);
  if (spec.spectrum) plan.push_back(AnalysisStage::Spectrum);
  return plan;
}

AnalysisContext::AnalysisContext(const Image& input,
                                 const AnalysisContextSpec& spec, Build build)
    : input_(&input), spec_(spec) {
  DECAM_REQUIRE(!input.empty(), "analysis context of empty image");

  static const bool source_registered = [] {
    obs::register_memory_source("analysis_context", [] {
      return g_context_bytes.load(std::memory_order_relaxed);
    });
    return true;
  }();
  (void)source_registered;

  if (build == Build::Eager) {
    for (const AnalysisStage stage : analysis_plan(spec_)) ensure(stage);
  }
}

void AnalysisContext::ensure(AnalysisStage stage) {
  switch (stage) {
    case AnalysisStage::RoundTrip:
      if (wants_downscale(spec_) && !downscaled_) build_round_trip();
      return;
    case AnalysisStage::Filter:
      if (spec_.filter_window > 0 && !filtered_) build_filter();
      return;
    case AnalysisStage::Spectrum:
      if (spec_.spectrum && !spectrum_) build_spectrum();
      return;
  }
}

void AnalysisContext::build_round_trip() {
  static auto& round_trip_hist =
      obs::MetricsRegistry::instance().histogram("context/round_trip");
  obs::ScopedTimer timer(round_trip_hist, "context/round_trip");
  if (!spec_.up_algo) {
    downscaled_ = resize(*input_, spec_.down_width, spec_.down_height,
                         spec_.down_algo);
  } else {
    // One downscale serves both the pipeline view (histogram baseline) and
    // the round trip — resize(resize(I)) is exactly scale_round_trip.
    RoundTripImages images =
        scale_round_trip_full(*input_, spec_.down_width, spec_.down_height,
                              spec_.down_algo, *spec_.up_algo);
    downscaled_ = std::move(images.down);
    round_trip_ = std::move(images.up);
  }
  add_bytes(image_bytes(downscaled_) + image_bytes(round_trip_));
}

void AnalysisContext::build_filter() {
  static auto& filter_hist =
      obs::MetricsRegistry::instance().histogram("context/filter");
  obs::ScopedTimer timer(filter_hist, "context/filter");
  filtered_ = rank_filter(*input_, spec_.filter_window, spec_.filter_op);
  add_bytes(image_bytes(filtered_));
}

void AnalysisContext::build_spectrum() {
  static auto& spectrum_hist =
      obs::MetricsRegistry::instance().histogram("context/spectrum");
  obs::ScopedTimer timer(spectrum_hist, "context/spectrum");
  spectrum_ = centered_log_spectrum(*input_);
  add_bytes(image_bytes(spectrum_));
}

void AnalysisContext::add_bytes(std::uint64_t bytes) {
  bytes_ += bytes;
  g_context_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

AnalysisContext::~AnalysisContext() {
  g_context_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
}

AnalysisContext::AnalysisContext(AnalysisContext&& other) noexcept
    : input_(other.input_),
      spec_(other.spec_),
      downscaled_(std::move(other.downscaled_)),
      round_trip_(std::move(other.round_trip_)),
      filtered_(std::move(other.filtered_)),
      spectrum_(std::move(other.spectrum_)),
      bytes_(other.bytes_) {
  // The moved-from context must not release our share in its destructor.
  other.bytes_ = 0;
}

const Image& AnalysisContext::downscaled() const {
  DECAM_REQUIRE(downscaled_.has_value(), "context built without a downscale");
  return *downscaled_;
}

const Image& AnalysisContext::round_trip() const {
  DECAM_REQUIRE(round_trip_.has_value(), "context built without a round trip");
  return *round_trip_;
}

const Image& AnalysisContext::filtered() const {
  DECAM_REQUIRE(filtered_.has_value(),
                "context built without a filtered image");
  return *filtered_;
}

const Image& AnalysisContext::spectrum() const {
  DECAM_REQUIRE(spectrum_.has_value(), "context built without a spectrum");
  return *spectrum_;
}

}  // namespace decam::core
