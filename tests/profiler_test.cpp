// Hierarchical stage profiler (obs/profiler.h): tree construction from
// nested spans, cross-thread merging, pool lanes under the caller's stage,
// self-time arithmetic, the collapsed stack export, and
// snapshot-while-recording safety.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <regex>
#include <sstream>
#include <thread>

#include "core/filtering_detector.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace decam::obs {
namespace {

// Spin for a bounded, nonzero wall-clock interval so span durations are
// reliably positive on any clock resolution.
void busy_wait_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

const ProfileEntry* find_entry(const std::vector<ProfileEntry>& entries,
                               const std::string& path) {
  for (const ProfileEntry& entry : entries) {
    if (entry.path == path) return &entry;
  }
  return nullptr;
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    set_profiling_enabled(true);
    reset_profile();
  }
  void TearDown() override {
    set_profiling_enabled(false);
    reset_profile();
  }
};

TEST_F(ProfilerTest, NestedSpansBuildPathTree) {
  {
    DECAM_SPAN("pt_outer");
    busy_wait_us(200);
    {
      DECAM_SPAN("pt_inner");
      busy_wait_us(100);
    }
    {
      DECAM_SPAN("pt_inner");
      busy_wait_us(100);
    }
  }
  const std::vector<ProfileEntry> entries = profile_snapshot();
  const ProfileEntry* outer = find_entry(entries, "pt_outer");
  const ProfileEntry* inner = find_entry(entries, "pt_outer;pt_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(outer->name, "pt_outer");
  EXPECT_EQ(inner->count, 2u);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(inner->name, "pt_inner");
  // Inclusive time contains the children; self = total - children >= 0.
  EXPECT_GE(outer->total_ms, inner->total_ms);
  EXPECT_GE(outer->self_ms, 0.0);
  EXPECT_NEAR(outer->self_ms, outer->total_ms - inner->total_ms, 1e-9);
  // The same name at top level is a different stage than the nested one.
  EXPECT_EQ(find_entry(entries, "pt_inner"), nullptr);
}

TEST_F(ProfilerTest, PreOrderSnapshotKeepsParentBeforeChild) {
  {
    DECAM_SPAN("pt_a");
    DECAM_SPAN("pt_b");
    DECAM_SPAN("pt_c");
    busy_wait_us(50);
  }
  const std::vector<ProfileEntry> entries = profile_snapshot();
  std::size_t ia = entries.size(), ib = entries.size(), ic = entries.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].path == "pt_a") ia = i;
    if (entries[i].path == "pt_a;pt_b") ib = i;
    if (entries[i].path == "pt_a;pt_b;pt_c") ic = i;
  }
  ASSERT_LT(ia, entries.size());
  ASSERT_LT(ib, entries.size());
  ASSERT_LT(ic, entries.size());
  EXPECT_LT(ia, ib);
  EXPECT_LT(ib, ic);
}

TEST_F(ProfilerTest, ThreadsMergeByStagePath) {
  auto record = [] {
    for (int i = 0; i < 3; ++i) {
      DECAM_SPAN("pt_shared");
      busy_wait_us(50);
    }
  };
  std::thread worker(record);
  record();
  worker.join();
  const std::vector<ProfileEntry> entries = profile_snapshot();
  const ProfileEntry* shared = find_entry(entries, "pt_shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count, 6u);
}

TEST_F(ProfilerTest, SelfTimesSumToRootTotals) {
  {
    DECAM_SPAN("pt_root");
    busy_wait_us(300);
    {
      DECAM_SPAN("pt_mid");
      busy_wait_us(200);
      DECAM_SPAN("pt_leaf");
      busy_wait_us(100);
    }
  }
  const std::vector<ProfileEntry> entries = profile_snapshot();
  double self_sum = 0.0;
  double root_total = 0.0;
  for (const ProfileEntry& entry : entries) {
    if (entry.path.rfind("pt_root", 0) == 0) self_sum += entry.self_ms;
    if (entry.path == "pt_root") root_total = entry.total_ms;
  }
  ASSERT_GT(root_total, 0.0);
  // Self times partition the root's inclusive time exactly (same counters,
  // exact subtraction — only the >= 0 clamp could shave a sliver).
  EXPECT_NEAR(self_sum, root_total, 0.05 * root_total);
}

TEST_F(ProfilerTest, DisabledProfilingRecordsNothing) {
  set_profiling_enabled(false);
  {
    DECAM_SPAN("pt_dark");
    busy_wait_us(50);
  }
  EXPECT_EQ(find_entry(profile_snapshot(), "pt_dark"), nullptr);
}

TEST_F(ProfilerTest, ResetZeroesCountsButKeepsRecordingValid) {
  {
    DECAM_SPAN("pt_epoch");
    busy_wait_us(50);
  }
  reset_profile();
  const std::vector<ProfileEntry> cleared = profile_snapshot();
  const ProfileEntry* after = find_entry(cleared, "pt_epoch");
  if (after != nullptr) {
    EXPECT_EQ(after->count, 0u);
    EXPECT_EQ(after->total_ms, 0.0);
  }
  {
    DECAM_SPAN("pt_epoch");
    busy_wait_us(50);
  }
  const std::vector<ProfileEntry> rerecorded = profile_snapshot();
  const ProfileEntry* again = find_entry(rerecorded, "pt_epoch");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->count, 1u);
  EXPECT_GT(again->total_ms, 0.0);
}

TEST_F(ProfilerTest, CollapsedStacksMatchLineGrammar) {
  {
    DECAM_SPAN("pt_stack_outer");
    busy_wait_us(200);
    DECAM_SPAN("pt_stack_inner");
    busy_wait_us(200);
  }
  const std::string stacks = collapsed_stacks();
  EXPECT_NE(stacks.find("pt_stack_outer;pt_stack_inner "), std::string::npos);
  const std::regex line_re("^[^ ]+ [0-9]+$");
  std::istringstream in(stacks);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
    ++lines;
  }
  EXPECT_GE(lines, 1);
}

TEST_F(ProfilerTest, RenderedTablesContainStages) {
  {
    DECAM_SPAN("pt_render");
    busy_wait_us(100);
  }
  EXPECT_NE(render_profile_tree().render().find("pt_render"),
            std::string::npos);
}

// A pool lane re-enters the caller's open stage, so fanned-out work nests
// under it instead of starting a second root on each worker.
TEST_F(ProfilerTest, PoolLanesRecordUnderTheCallersStage) {
  runtime::ThreadPool pool(4);
  const auto spin_in = [](const char* stage) {
    return [stage](std::size_t) {
      DECAM_SPAN(stage);
      busy_wait_us(500);
    };
  };
  {
    DECAM_SPAN("pt_outer");
    runtime::parallel_for(pool, std::size_t{0}, std::size_t{16},
                          spin_in("pt_inner"));
  }
  std::vector<ProfileEntry> entries = profile_snapshot();
  const ProfileEntry* outer = find_entry(entries, "pt_outer");
  const ProfileEntry* inner = find_entry(entries, "pt_outer;pt_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);  // re-entered frames add no count
  EXPECT_EQ(inner->count, 16u);
  EXPECT_EQ(find_entry(entries, "pt_inner"), nullptr);

  // The lanes left the stage: work fanned out outside any span records at
  // the root.
  runtime::parallel_for(pool, std::size_t{0}, std::size_t{16},
                        spin_in("pt_after"));
  entries = profile_snapshot();
  const ProfileEntry* after = find_entry(entries, "pt_after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, 16u);
  EXPECT_EQ(find_entry(entries, "pt_outer;pt_after"), nullptr);
}

// A detector's frame carries its full name, the one the Scanner's
// `detector/<name>` histogram uses, so min, median and max filters differ.
TEST_F(ProfilerTest, FilteringDetectorFrameCarriesItsName) {
  core::FilteringDetectorConfig config;
  config.op = RankOp::Max;
  config.metric = core::Metric::SSIM;
  const core::FilteringDetector detector(config);
  Image image(32, 32, 3);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      image.at(x, y, 1) = static_cast<float>((x * y) % 7);
    }
  }
  (void)detector.score(image);
  const std::vector<ProfileEntry> entries = profile_snapshot();
  const ProfileEntry* frame =
      find_entry(entries, "detector/filtering/max/ssim");
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->count, 1u);
}

// Snapshots are documented to run concurrently with recording threads
// (relaxed counters, child inserts under the tree mutex). Hammer both sides
// at once — primarily a TSan target, but the final count check also catches
// lost updates.
TEST_F(ProfilerTest, SnapshotWhileRecordingIsSafe) {
  constexpr int kIterations = 2000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kIterations; ++i) {
      DECAM_SPAN("pt_live_outer");
      DECAM_SPAN(i % 2 == 0 ? "pt_live_even" : "pt_live_odd");
    }
    done.store(true);
  });
  // do-while: on a single-core host the writer can finish before this
  // thread runs at all, but at least one snapshot must still happen.
  int snapshots = 0;
  do {
    const std::vector<ProfileEntry> entries = profile_snapshot();
    for (const ProfileEntry& entry : entries) {
      EXPECT_GE(entry.self_ms, 0.0);
    }
    ++snapshots;
  } while (!done.load());
  writer.join();
  EXPECT_GT(snapshots, 0);
  const std::vector<ProfileEntry> final_entries = profile_snapshot();
  const ProfileEntry* outer = find_entry(final_entries, "pt_live_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, static_cast<std::uint64_t>(kIterations));
}

}  // namespace
}  // namespace decam::obs
