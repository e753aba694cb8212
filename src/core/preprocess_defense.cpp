#include "core/preprocess_defense.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "imaging/filter.h"
#include "imaging/jpeg_sim.h"

namespace decam::core {
namespace {

// True when v is an integer in [lo, hi]. The range compares come first
// and are false for NaN, so only in-range values ever reach an int cast
// (apply_step); casting an out-of-range double is undefined behaviour.
bool integer_in(double v, int lo, int hi) {
  return v >= lo && v <= hi && v == std::trunc(v);
}

// Step parameter validation lives in one place so the DefenseChain
// constructor (programmatic use) and parse() (spec strings) reject the same
// inputs with the same message.
void validate_step(const DefenseStep& step) {
  switch (step.kind) {
    case DefenseKind::Squeeze:
      if (!integer_in(step.param, 1, 8)) {
        throw std::invalid_argument(
            "defense: squeeze bits must be an integer in [1, 8]");
      }
      return;
    case DefenseKind::Median:
      if (!integer_in(step.param, 1, 15)) {
        throw std::invalid_argument(
            "defense: median window must be an integer in [1, 15]");
      }
      return;
    case DefenseKind::Gaussian:
      if (!(step.param > 0.0) || step.param > 16.0) {
        throw std::invalid_argument(
            "defense: gauss sigma must be in (0, 16]");
      }
      return;
    case DefenseKind::Jpeg:
      if (!integer_in(step.param, 1, 100)) {
        throw std::invalid_argument(
            "defense: jpeg quality must be an integer in [1, 100]");
      }
      return;
  }
  throw std::invalid_argument("defense: unknown step kind");
}

// Reads a spec step's parameter into step.param: a decimal integer for
// squeeze, median and jpeg, a fixed-point decimal for gauss, and the whole
// of `text` must be consumed (as decamctl reads its numeric flags).
bool parse_param(const std::string& text, DefenseStep& step) {
  const char* first = text.data();
  const char* last = first + text.size();
  std::from_chars_result result{};
  if (step.kind == DefenseKind::Gaussian) {
    result = std::from_chars(first, last, step.param,
                             std::chars_format::fixed);
  } else {
    int value = 0;
    result = std::from_chars(first, last, value);
    step.param = value;
  }
  return result.ec == std::errc{} && result.ptr == last;
}

Image apply_step(const Image& input, const DefenseStep& step) {
  switch (step.kind) {
    case DefenseKind::Squeeze:
      return bit_depth_squeeze(input, static_cast<int>(step.param));
    case DefenseKind::Median:
      return median_filter(input, static_cast<int>(step.param));
    case DefenseKind::Gaussian:
      return gaussian_blur(input, step.param);
    case DefenseKind::Jpeg:
      return jpeg_roundtrip(input, static_cast<int>(step.param));
  }
  DECAM_ASSERT(false);
  return input;
}

// Integer parameters print without a decimal point; gauss sigmas print in
// the shortest fixed-point form that parses back to the same double ("0.8",
// "0.00001"), so every name round-trips through parse(). 512 chars hold any
// double in (0, 16] in fixed form, subnormals included.
std::string param_string(const DefenseStep& step) {
  if (step.kind != DefenseKind::Gaussian) {
    return std::to_string(static_cast<int>(step.param));
  }
  char buf[512];
  const auto result = std::to_chars(buf, buf + sizeof(buf), step.param,
                                    std::chars_format::fixed);
  DECAM_ASSERT(result.ec == std::errc{});
  return std::string(buf, result.ptr);
}

}  // namespace

const char* to_string(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::Squeeze: return "squeeze";
    case DefenseKind::Median: return "median";
    case DefenseKind::Gaussian: return "gauss";
    case DefenseKind::Jpeg: return "jpeg";
  }
  return "?";
}

Image bit_depth_squeeze(const Image& input, int bits) {
  if (bits < 1 || bits > 8) {
    throw std::invalid_argument("bit_depth_squeeze: bits must be in [1, 8]");
  }
  const int levels = (1 << bits) - 1;  // highest level index
  const double step = 255.0 / levels;
  Image out = input;
  out.clamp();
  for (int c = 0; c < out.channels(); ++c) {
    for (float& v : out.plane(c)) {
      // Snap to the nearest of the 2^bits levels, then round the level
      // value itself to the 8-bit integer grid so squeezed images stay
      // eligible for the Grid8 median network. Idempotent: adjacent
      // integer levels are >= 2 apart (bits <= 7), so the +-0.5 integer
      // rounding never moves a value into a different level's basin; for
      // bits == 8 step == 1 and both roundings are exact.
      const double level = std::round(static_cast<double>(v) / step);
      v = static_cast<float>(std::round(level * step));
    }
  }
  return out;
}

DefenseChain::DefenseChain(std::vector<DefenseStep> steps)
    : steps_(std::move(steps)) {
  for (const DefenseStep& step : steps_) validate_step(step);
}

DefenseChain DefenseChain::parse(const std::string& spec) {
  if (spec == "none") return DefenseChain{};
  std::vector<DefenseStep> steps;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find('+', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    DefenseStep step;
    std::size_t name_len = 0;
    if (token.rfind("squeeze", 0) == 0) {
      step.kind = DefenseKind::Squeeze;
      name_len = 7;
    } else if (token.rfind("median", 0) == 0) {
      step.kind = DefenseKind::Median;
      name_len = 6;
    } else if (token.rfind("gauss", 0) == 0) {
      step.kind = DefenseKind::Gaussian;
      name_len = 5;
    } else if (token.rfind("jpeg", 0) == 0) {
      step.kind = DefenseKind::Jpeg;
      name_len = 4;
    } else {
      throw std::invalid_argument("defense: unknown step '" + token +
                                  "' in spec '" + spec + "'");
    }
    if (!parse_param(token.substr(name_len), step)) {
      throw std::invalid_argument("defense: bad parameter in step '" + token +
                                  "' of spec '" + spec + "'");
    }
    validate_step(step);
    steps.push_back(step);
    pos = end + 1;
  }
  return DefenseChain{std::move(steps)};
}

Image DefenseChain::apply(const Image& input) const {
  if (steps_.empty()) return input;
  // The first step reads `input` itself; every step returns a new image.
  Image out = apply_step(input, steps_.front());
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    out = apply_step(out, steps_[i]);
  }
  return out;
}

std::string DefenseChain::name() const {
  if (steps_.empty()) return "none";
  std::string out;
  for (const DefenseStep& step : steps_) {
    if (!out.empty()) out += '+';
    out += to_string(step.kind);
    out += param_string(step);
  }
  return out;
}

DefendedDetector::DefendedDetector(std::shared_ptr<const Detector> inner,
                                   DefenseChain chain)
    : inner_(std::move(inner)), chain_(std::move(chain)) {
  DECAM_ASSERT(inner_ != nullptr);
}

double DefendedDetector::reduce(const AnalysisContext& context) const {
  return inner_->score(chain_.apply(context.input()));
}

std::string DefendedDetector::name() const {
  return chain_.name() + ">" + inner_->name();
}

}  // namespace decam::core
