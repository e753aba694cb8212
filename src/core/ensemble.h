// Majority-vote ensemble (paper Section V-E): the three detection methods
// vote independently and the majority decides. This both lifts accuracy
// above the best single method and hardens adaptive attacks, which now have
// to fool spatial- and frequency-domain methods simultaneously.
//
// Short-circuit voting: members are evaluated in order and the tally stops
// as soon as the remaining members cannot change the outcome (two of three
// already agree). Skipped members never score — and, on the deferred
// context path, never build their intermediates — so the decided-early case
// costs a strict subset of the full battery. The decision itself is
// unchanged (a decided strict majority is final by definition); skipping
// only removes scores, which decide() reports as nullopt and the
// `battery/skip_<method>` counters account for. Exact-ROC runs that need
// every score disable it with set_short_circuit(false).
//
// decide() is the one scoring loop for both vote modes, so it also times
// each member it scores. On one shared Deferred context a member's time
// still includes building its own stage: the three methods read disjoint
// stages (round trip, min filter, spectrum), which keeps the per-method
// Table 7 split.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.h"
#include "core/detector.h"
#include "obs/metrics.h"

namespace decam::core {

/// The ensemble's vote rule over precomputed scores: member i votes attack
/// when `is_attack(scores[i], calibrations[i])`, and the verdict is attack
/// only on a strict majority, so a tie (even member count) counts as
/// benign. Throws if the two spans differ in length.
bool majority_vote(std::span<const double> scores,
                   std::span<const Calibration> calibrations);

class EnsembleDetector {
 public:
  struct Member {
    std::shared_ptr<const Detector> detector;
    Calibration calibration;
  };

  /// One member's outcome plus the overall verdict. `scores[i]`,
  /// `votes[i]` and `elapsed_ms[i]` are nullopt when member i was skipped
  /// by the short circuit.
  struct Decision {
    bool attack = false;
    std::vector<std::optional<double>> scores;
    std::vector<std::optional<bool>> votes;
    std::vector<std::optional<double>> elapsed_ms;  // wall time of score()
    std::size_t evaluated = 0;  // members actually scored
  };

  /// At least one member; an odd count avoids ties (a tie counts as
  /// benign — the conservative choice for FRR).
  explicit EnsembleDetector(std::vector<Member> members);

  /// Full evaluation with per-member outcomes. From an Image the context is
  /// built Deferred, so skipped members never build their intermediates;
  /// the staged overload reuses whatever `context` already holds.
  Decision decide(const Image& input) const;
  Decision decide(AnalysisContext& context) const;

  /// The union of intermediates the members can reuse: each member primes
  /// the spec in turn, so one AnalysisContext built from the result serves
  /// every member (a member it does not cover scores a private context).
  AnalysisContextSpec context_spec() const;

  /// majority_vote() of precomputed member scores, in member order, against
  /// the members' calibrations.
  bool vote_scores(std::span<const double> member_scores) const;

  /// Enables/disables short-circuit voting (default: enabled). Disable for
  /// exact-ROC runs that must record every member's score.
  void set_short_circuit(bool enabled) { short_circuit_ = enabled; }
  bool short_circuit() const { return short_circuit_; }

  const std::vector<Member>& members() const { return members_; }

 private:
  std::vector<Member> members_;
  std::vector<Calibration> calibrations_;  // members_[i].calibration
  // battery/skip_<method> of members_[i], registered up front so reports
  // list every member's counter, zero or not.
  std::vector<obs::Counter*> skip_counters_;
  bool short_circuit_ = true;
};

}  // namespace decam::core
