#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace decam::obs {
namespace detail {

// One stage node of one thread's private tree. The owning thread is the
// only writer of `children` (inserts under the tree mutex so snapshots can
// traverse concurrently) and the only caller of enter/exit; the counters
// are relaxed atomics so a snapshot from another thread reads a consistent
// enough view without stopping the world.
struct ProfileNode {
  std::string name;
  ProfileNode* parent = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::map<std::string, std::unique_ptr<ProfileNode>, std::less<>> children;
};

}  // namespace detail

namespace {

using detail::ProfileNode;

// One tree per thread that ever recorded a stage. Trees are kept alive past
// thread exit (shared_ptr in the registry) so a final export still sees
// worker stages. `mutex` guards child insertion and snapshot traversal;
// enter/exit on existing nodes never take it.
struct ThreadProfile {
  std::mutex mutex;
  ProfileNode root;      // name "", never reported itself
  ProfileNode* current = &root;
};

struct ProfileRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadProfile>> threads;
};

ProfileRegistry& registry() {
  // Immortal, like MetricsRegistry: the exit flush (obs/sink.h) reads it
  // after static destruction has begun.
  static ProfileRegistry* instance = new ProfileRegistry();
  return *instance;
}

ThreadProfile& thread_profile() {
  thread_local std::shared_ptr<ThreadProfile> profile = [] {
    auto created = std::make_shared<ThreadProfile>();
    std::lock_guard lock(registry().mutex);
    registry().threads.push_back(created);
    return created;
  }();
  return *profile;
}

// The child `name` of `parent` in `profile`'s tree, created on first visit.
// Only the owning thread inserts into its own maps, so the lock-free find
// can race only with a concurrent snapshot (also a reader).
ProfileNode* child_of(ThreadProfile& profile, ProfileNode* parent,
                      std::string_view name) {
  const auto found = parent->children.find(name);
  if (found != parent->children.end()) return found->second.get();
  auto created = std::make_unique<ProfileNode>();
  created->name = std::string(name);
  created->parent = parent;
  ProfileNode* node = created.get();
  std::lock_guard lock(profile.mutex);
  parent->children.emplace(node->name, std::move(created));
  return node;
}

// `stage`'s path (a node of any thread's tree) in `profile`'s tree.
ProfileNode* same_path(ThreadProfile& profile, const ProfileNode* stage) {
  if (stage->parent == nullptr) return &profile.root;
  return child_of(profile, same_path(profile, stage->parent), stage->name);
}

// ------------------------------------------------------------- merging --

// Thread trees merged by stage path: identical paths from different threads
// (or from the same thread across epochs) collapse into one node.
struct MergedNode {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, MergedNode> children;
};

void merge_children(const ProfileNode& from, MergedNode& into) {
  for (const auto& [name, child] : from.children) {
    MergedNode& merged = into.children[name];
    merged.count += child->count.load(std::memory_order_relaxed);
    merged.total_ns += child->total_ns.load(std::memory_order_relaxed);
    merge_children(*child, merged);
  }
}

MergedNode merged_tree() {
  std::vector<std::shared_ptr<ThreadProfile>> threads;
  {
    std::lock_guard lock(registry().mutex);
    threads = registry().threads;
  }
  MergedNode root;
  for (const auto& thread : threads) {
    std::lock_guard lock(thread->mutex);
    merge_children(thread->root, root);
  }
  return root;
}

void flatten(const MergedNode& node, const std::string& path, int depth,
             std::vector<ProfileEntry>& out) {
  for (const auto& [name, child] : node.children) {
    // Local copy: recursing with a reference into `out` would dangle when
    // the vector reallocates.
    const std::string child_path = path.empty() ? name : path + ";" + name;
    ProfileEntry entry;
    entry.path = child_path;
    entry.name = name;
    entry.depth = depth;
    entry.count = child.count;
    entry.total_ms = static_cast<double>(child.total_ns) * 1e-6;
    std::uint64_t children_ns = 0;
    for (const auto& [child_name, grandchild] : child.children) {
      children_ns += grandchild.total_ns;
    }
    entry.self_ms =
        child.total_ns > children_ns
            ? static_cast<double>(child.total_ns - children_ns) * 1e-6
            : 0.0;
    out.push_back(std::move(entry));
    flatten(child, child_path, depth + 1, out);
  }
}

}  // namespace

namespace detail {

ProfileNode* profile_enter(std::string_view name) {
  ThreadProfile& profile = thread_profile();
  profile.current = child_of(profile, profile.current, name);
  return profile.current;
}

void profile_exit(ProfileNode* node, double elapsed_us) {
  node->count.fetch_add(1, std::memory_order_relaxed);
  node->total_ns.fetch_add(
      static_cast<std::uint64_t>(std::max(elapsed_us, 0.0) * 1e3),
      std::memory_order_relaxed);
  thread_profile().current = node->parent;
}

const ProfileNode* open_stage() {
  if (!profiling_enabled()) return nullptr;
  const ProfileNode* current = thread_profile().current;
  return current->parent != nullptr ? current : nullptr;
}

// Another thread's `name` and `parent` never change after the node is
// created, and the caller hands `stage` over through the pool queue's
// mutex, so reading its path here is race-free.
StageScope::StageScope(const ProfileNode* stage) {
  if (stage == nullptr) return;
  ThreadProfile& profile = thread_profile();
  previous_ = profile.current;
  profile.current = same_path(profile, stage);
}

StageScope::~StageScope() {
  if (previous_ != nullptr) thread_profile().current = previous_;
}

}  // namespace detail

std::vector<ProfileEntry> profile_snapshot() {
  std::vector<ProfileEntry> out;
  flatten(merged_tree(), "", 0, out);
  return out;
}

void reset_profile() {
  std::vector<std::shared_ptr<ThreadProfile>> threads;
  {
    std::lock_guard lock(registry().mutex);
    threads = registry().threads;
  }
  for (const auto& thread : threads) {
    std::lock_guard lock(thread->mutex);
    // Do not clear the child maps: a span in flight on that thread holds a
    // raw node pointer and its `current` chain. Zeroing the counters gives
    // a fresh epoch while keeping every live pointer valid.
    struct Zero {
      static void apply(ProfileNode& node) {
        node.count.store(0, std::memory_order_relaxed);
        node.total_ns.store(0, std::memory_order_relaxed);
        for (auto& [name, child] : node.children) apply(*child);
      }
    };
    Zero::apply(thread->root);
  }
}

report::Table render_profile_tree() {
  // Depth-first with siblings ordered by descending self time: the table
  // reads as "the biggest stage first, its cost breakdown indented below".
  std::vector<ProfileEntry> entries = profile_snapshot();
  double grand_total_ms = 0.0;
  for (const ProfileEntry& entry : entries) grand_total_ms += entry.self_ms;

  struct Row {
    const ProfileEntry* entry;
    std::vector<Row> children;
  };
  // Rebuild nesting from depths (entries are pre-order).
  struct Builder {
    static std::size_t build(const std::vector<ProfileEntry>& entries,
                             std::size_t i, int depth,
                             std::vector<Row>& out) {
      while (i < entries.size() && entries[i].depth == depth) {
        Row row{&entries[i], {}};
        i = build(entries, i + 1, depth + 1, row.children);
        out.push_back(std::move(row));
      }
      std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
        return a.entry->self_ms > b.entry->self_ms;
      });
      return i;
    }
  };
  std::vector<Row> roots;
  Builder::build(entries, 0, 0, roots);

  report::Table table({"stage", "count", "total ms", "self ms", "self %"});
  struct Renderer {
    report::Table& table;
    double grand_total_ms;
    void render(const std::vector<Row>& rows, int depth) {
      for (const Row& row : rows) {
        const ProfileEntry& entry = *row.entry;
        const double pct = grand_total_ms > 0.0
                               ? 100.0 * entry.self_ms / grand_total_ms
                               : 0.0;
        table.add_row({std::string(static_cast<std::size_t>(2 * depth), ' ') +
                           entry.name,
                       std::to_string(entry.count),
                       report::format_double(entry.total_ms),
                       report::format_double(entry.self_ms),
                       report::format_double(pct)});
        render(row.children, depth + 1);
      }
    }
  };
  Renderer{table, grand_total_ms}.render(roots, 0);
  return table;
}

std::string collapsed_stacks() {
  std::string out;
  for (const ProfileEntry& entry : profile_snapshot()) {
    const auto self_us = static_cast<std::uint64_t>(entry.self_ms * 1e3);
    if (self_us == 0) continue;
    out += entry.path;
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " %llu\n",
                  static_cast<unsigned long long>(self_us));
    out += buffer;
  }
  return out;
}

void write_collapsed_stacks(const std::filesystem::path& path) {
  write_text_file(path, collapsed_stacks());
}

}  // namespace decam::obs
