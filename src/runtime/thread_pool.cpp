#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace decam::runtime {
namespace {

thread_local bool tl_pool_worker = false;

// Pool telemetry (DESIGN.md §7): queue depth and idle-worker counts are
// updated under the pool mutex the scheduler already holds, so the gauges
// cost one relaxed store on paths that were never lock-free to begin with.
obs::Gauge& queue_depth_gauge() {
  static auto& gauge =
      obs::MetricsRegistry::instance().gauge("pool/queue_depth");
  return gauge;
}

obs::Gauge& idle_workers_gauge() {
  static auto& gauge =
      obs::MetricsRegistry::instance().gauge("pool/idle_workers");
  return gauge;
}

}  // namespace

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  static auto& submitted =
      obs::MetricsRegistry::instance().counter("pool/tasks_submitted");
  submitted.add();
  if (workers_.empty()) {
    task();  // degenerate pool: the caller is the only lane
    return;
  }
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  wake_.notify_one();
}

bool ThreadPool::on_worker_thread() { return tl_pool_worker; }

void ThreadPool::worker_main(int index) {
  tl_pool_worker = true;
  // Label the trace timeline: spans recorded from this thread group under a
  // named row in chrome://tracing instead of a bare tid.
  obs::set_current_thread_name("decam-worker-" + std::to_string(index + 1));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      ++idle_;
      idle_workers_gauge().set(static_cast<double>(idle_));
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      idle_workers_gauge().set(static_cast<double>(idle_));
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    task();
  }
}

namespace detail {

void parallel_for_impl(ThreadPool& pool, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable done;
    int pending = 0;
  };
  // shared_ptr: a lane queued behind other work may still be starting up
  // while the fast lanes (and the caller) have finished every index.
  auto state = std::make_shared<State>();

  // One lane: pull indices until the range is drained or a lane failed.
  // `body` stays valid because the caller blocks until every lane returns.
  const auto lane = [state, &body, count] {
    for (;;) {
      if (state->failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
        state->failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const int lanes = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(pool.size()), count));
  state->pending = lanes - 1;
  // Pool lanes record their spans under the caller's open profile stage,
  // so the profile keeps one tree across threads (DESIGN.md §7).
  const obs::detail::ProfileNode* stage = obs::detail::open_stage();
  for (int k = 0; k + 1 < lanes; ++k) {
    pool.submit([state, lane, stage] {
      {
        const obs::detail::StageScope in_caller_stage(stage);
        lane();
      }
      std::lock_guard lock(state->mutex);
      --state->pending;
      state->done.notify_one();
    });
  }
  lane();  // the calling thread is the last lane
  {
    std::unique_lock lock(state->mutex);
    state->done.wait(lock, [&] { return state->pending == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace detail

int hardware_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int env_thread_count() {
  const char* value = std::getenv("DECAM_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) return 0;
  return static_cast<int>(std::min<long>(parsed, 512));
}

int default_thread_count() {
  const int from_env = env_thread_count();
  return from_env > 0 ? from_env : hardware_thread_count();
}

namespace {

std::mutex g_pool_mutex;
int g_requested = 0;  // 0 = follow default_thread_count()

// The global pool's holder, guarded by g_pool_mutex. Workers, even while
// starting up, use only immortal obs singletons (the trace buffer, the
// metrics and profile registries), so the pool may join them at exit in
// any static-destruction order.
std::unique_ptr<ThreadPool>& pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

int wanted_size() { return g_requested > 0 ? g_requested : default_thread_count(); }

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard lock(g_pool_mutex);
  std::unique_ptr<ThreadPool>& pool = pool_slot();
  if (!pool) {
    pool = std::make_unique<ThreadPool>(wanted_size());
    obs::MetricsRegistry::instance().gauge("pool/size").set(
        static_cast<double>(pool->size()));
  }
  return *pool;
}

void set_thread_count(int threads) {
  std::lock_guard lock(g_pool_mutex);
  g_requested = std::max(0, threads);
  std::unique_ptr<ThreadPool>& pool = pool_slot();
  if (pool && pool->size() != wanted_size()) pool.reset();
}

int thread_count() {
  std::lock_guard lock(g_pool_mutex);
  const std::unique_ptr<ThreadPool>& pool = pool_slot();
  return pool ? pool->size() : wanted_size();
}

}  // namespace decam::runtime
