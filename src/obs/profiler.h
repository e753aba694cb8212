// Hierarchical stage profiler — a low-overhead call tree built from the
// same Span probes that feed tracing (DESIGN.md §7).
//
// Every thread owns a private tree of ProfileNodes keyed by (parent, stage
// name). Entering a span walks one pointer down (creating the child on first
// visit), leaving it adds the elapsed time and count with relaxed atomics —
// no locks on the hot path, no per-event allocation after the first visit of
// a stage. A runtime pool lane re-enters its caller's open stage first
// (StageScope), so work fanned out over the pool lands under the stage that
// fanned it out. Exporters merge all thread trees into one by stage path,
// derive per-stage self time (total minus children), and render either an
// indented tree or the collapsed-stack text format flamegraph.pl and
// speedscope consume ("a;b;c <self_us>" per line).
//
// The profiler records while its sink is on (obs/sink.h: DECAM_PROFILE_FILE,
// or set_profiling_enabled); off, a span costs one relaxed atomic load and
// a branch. The exit flush writes the collapsed stacks to DECAM_PROFILE_FILE.
//
// Snapshots may run while other threads record: counters are relaxed
// atomics, so a merged tree is a statistically consistent view, not a
// barrier (a node's count can momentarily lag its total by one sample).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.h"
#include "report/table.h"

namespace decam::obs {

namespace detail {

struct ProfileNode;

/// Pushes `name` as the calling thread's current stage and returns the
/// node to hand back to profile_exit. Span calls these; user code should
/// use the DECAM_SPAN macro instead.
ProfileNode* profile_enter(std::string_view name);

/// Pops the stage entered as `node`, attributing `elapsed_us` to it. Must
/// run on the thread that called profile_enter, in LIFO order (guaranteed
/// by the RAII probes).
void profile_exit(ProfileNode* node, double elapsed_us);

/// The calling thread's innermost open stage, or nullptr when profiling is
/// off or no stage is open. Costs one relaxed load when profiling is off.
const ProfileNode* open_stage();

/// Re-enters `stage` — another thread's open stage — in the calling
/// thread's tree for the object's lifetime, so spans opened meanwhile nest
/// under the same path, then restores the thread's previous stage.
/// Re-entered frames add no count and no time: the owning thread's frames
/// keep its wall time. A null `stage` does nothing.
class StageScope {
 public:
  explicit StageScope(const ProfileNode* stage);
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;
  ~StageScope();

 private:
  ProfileNode* previous_ = nullptr;  // nullptr: nothing re-entered
};

}  // namespace detail

/// One stage of the merged profile, in depth-first pre-order.
struct ProfileEntry {
  std::string path;    // "a;b;c" — stage names from the root, ';'-joined
  std::string name;    // last path component
  int depth = 0;       // 0 = top-level stage
  std::uint64_t count = 0;
  double total_ms = 0.0;  // inclusive: this stage and everything below it
  double self_ms = 0.0;   // total minus the children's totals (>= 0)
};

/// Merges every thread's tree by stage path. Safe to call while other
/// threads record (see header comment). Depth-first pre-order, children
/// sorted by name.
std::vector<ProfileEntry> profile_snapshot();

/// Zeroes every stage's count and time on every thread, keeping the tree
/// so in-flight spans still exit cleanly. Tests and epoch-based services.
void reset_profile();

/// The merged tree as an indented table sorted depth-first, children by
/// descending self time: stage, count, total ms, self ms, self %.
report::Table render_profile_tree();

/// Collapsed-stack text export: one "path;to;stage <self_us>" line per
/// stage with nonzero self time. Feed to flamegraph.pl or speedscope.
std::string collapsed_stacks();

/// Writes collapsed_stacks() to `path` (throws IoError on failure).
void write_collapsed_stacks(const std::filesystem::path& path);

}  // namespace decam::obs
