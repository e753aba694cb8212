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
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/calibration.h"
#include "core/detector.h"

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

  /// One member's outcome plus the overall verdict. `scores[i]` /
  /// `votes[i]` are nullopt when member i was skipped by the short circuit.
  struct Decision {
    bool attack = false;
    std::vector<std::optional<double>> scores;
    std::vector<std::optional<bool>> votes;
    std::size_t evaluated = 0;  // members actually scored
  };

  /// At least one member; an odd count avoids ties (a tie counts as
  /// benign — the conservative choice for FRR).
  explicit EnsembleDetector(std::vector<Member> members);

  /// True when a strict majority of members flags the image — the verdict
  /// of decide(input), so short-circuited members never build their stages.
  bool is_attack(const Image& input) const;

  /// Full evaluation with per-member outcomes. From an Image the context is
  /// built Deferred, so skipped members never build their intermediates;
  /// the staged overload reuses whatever `context` already holds.
  Decision decide(const Image& input) const;
  Decision decide(AnalysisContext& context) const;

  /// Individual member votes (for diagnostics and the examples). Always
  /// evaluates every member, regardless of the short-circuit setting.
  std::vector<bool> votes(const Image& input) const;

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
  bool short_circuit_ = true;
};

}  // namespace decam::core
