#include "core/ensemble.h"

#include "common/error.h"
#include "obs/clock.h"
#include "obs/span.h"

namespace decam::core {
namespace {

// Skip counters are keyed by the detection method — the first segment of the
// detector name ("scaling/mse" -> "battery/skip_scaling") — so the three
// paper methods share stable counter names regardless of metric choice.
std::string skip_counter_name(const Detector& detector) {
  std::string name = detector.name();
  if (const std::size_t slash = name.find('/'); slash != std::string::npos) {
    name.resize(slash);
  }
  return "battery/skip_" + name;
}

}  // namespace

bool majority_vote(std::span<const double> scores,
                   std::span<const Calibration> calibrations) {
  DECAM_REQUIRE(scores.size() == calibrations.size(),
                "score count must match member count");
  std::size_t attack_votes = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (is_attack(scores[i], calibrations[i])) ++attack_votes;
  }
  return 2 * attack_votes > scores.size();
}

EnsembleDetector::EnsembleDetector(std::vector<Member> members)
    : members_(std::move(members)) {
  DECAM_REQUIRE(!members_.empty(), "ensemble needs at least one member");
  for (const Member& member : members_) {
    DECAM_REQUIRE(member.detector != nullptr, "null detector in ensemble");
    calibrations_.push_back(member.calibration);
    skip_counters_.push_back(&obs::MetricsRegistry::instance().counter(
        skip_counter_name(*member.detector)));
  }
}

AnalysisContextSpec EnsembleDetector::context_spec() const {
  AnalysisContextSpec spec;
  for (const Member& member : members_) {
    member.detector->prime(spec);
  }
  return spec;
}

// Evaluates members in order and stops as soon as the outcome is decided
// (when short-circuiting is on). With m members, `attack > m/2` can no
// longer change once reached, and can no longer be reached once
// `attack + remaining <= m/2`; in either state the remaining members are
// skipped and accounted through battery/skip_*.
EnsembleDetector::Decision EnsembleDetector::decide(
    AnalysisContext& context) const {
  DECAM_SPAN("ensemble/decide");
  Decision decision;
  const std::size_t m = members_.size();
  decision.scores.resize(m);
  decision.votes.resize(m);
  decision.elapsed_ms.resize(m);

  std::size_t attack_votes = 0;
  std::size_t i = 0;
  for (; i < m; ++i) {
    if (short_circuit_) {
      const std::size_t remaining = m - i;
      const bool decided_attack = 2 * attack_votes > m;
      const bool decided_benign = 2 * (attack_votes + remaining) <= m;
      if (decided_attack || decided_benign) break;
    }
    const double start_us = obs::now_us();
    const double score = members_[i].detector->score(context);
    decision.elapsed_ms[i] = (obs::now_us() - start_us) / 1000.0;
    const bool vote = core::is_attack(score, members_[i].calibration);
    decision.scores[i] = score;
    decision.votes[i] = vote;
    attack_votes += vote ? 1 : 0;
  }
  decision.evaluated = i;
  for (; i < m; ++i) skip_counters_[i]->add();
  decision.attack = 2 * attack_votes > m;
  return decision;
}

EnsembleDetector::Decision EnsembleDetector::decide(const Image& input) const {
  // Deferred build: a member skipped by the short circuit never triggers the
  // construction of its intermediate (round trip / filter / spectrum).
  AnalysisContext context(input, context_spec(), AnalysisContext::Build::Deferred);
  return decide(context);
}

bool EnsembleDetector::vote_scores(std::span<const double> member_scores) const {
  return majority_vote(member_scores, calibrations_);
}

}  // namespace decam::core
