#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/metrics.h"

namespace cdibot {
namespace {

// Submit() and ParallelFor() are the process's unit-of-work fan-out; the
// counters make executor pressure visible in statusz (tasks per run,
// chunk-claim granularity) without touching the dispatch fast path more
// than one relaxed add.
obs::Counter& TasksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("common.pool.tasks");
  return *c;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (joined_) return;
    joined_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !shutdown_;
}

void ThreadPool::NoteRejected() {
  static obs::Counter* rejected =
      obs::MetricsRegistry::Global().GetCounter("common.pool.rejected");
  rejected->Increment();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    TasksCounter().Increment();
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  static obs::Counter* parallel_fors =
      obs::MetricsRegistry::Global().GetCounter("common.pool.parallel_fors");
  static obs::Counter* iterations = obs::MetricsRegistry::Global().GetCounter(
      "common.pool.parallel_for_items");
  parallel_fors->Increment();
  iterations->Add(n);
  const size_t num_chunks = std::min(n, num_threads() * kClaimsPerThread);
  const size_t chunk_size = (n + num_chunks - 1) / num_chunks;

  // Chunks are claimed from a shared counter rather than pre-assigned to
  // tasks, and the calling thread claims chunks too. This keeps ParallelFor
  // deadlock-free when invoked from inside a pool task (the worker runs its
  // own chunks instead of blocking on futures no one can execute) and lets
  // idle workers steal whatever the caller has not reached yet. Helper
  // tasks may be dequeued after the loop completes; they find no chunk left
  // and return without touching `fn`, so the state they share must own its
  // own copy of the function.
  struct ForState {
    std::function<void(size_t)> fn;
    size_t n = 0;
    size_t chunk_size = 0;
    size_t num_chunks = 0;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> chunks_done{0};
    std::mutex mu;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->n = n;
  state->chunk_size = chunk_size;
  state->num_chunks = num_chunks;

  auto run_chunks = [](const std::shared_ptr<ForState>& s) {
    while (true) {
      const size_t c = s->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->num_chunks) return;
      const size_t begin = c * s->chunk_size;
      const size_t end = std::min(s->n, begin + s->chunk_size);
      for (size_t i = begin; i < end; ++i) s->fn(i);
      if (s->chunks_done.fetch_add(1) + 1 == s->num_chunks) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->done_cv.notify_all();
      }
    }
  };

  const size_t helpers = std::min(num_chunks, num_threads());
  for (size_t h = 0; h + 1 < helpers; ++h) {
    Submit([state, run_chunks]() { run_chunks(state); });
  }
  run_chunks(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state]() {
    return state->chunks_done.load() == state->num_chunks;
  });
}

ThreadPool& DefaultThreadPool() {
  static ThreadPool* pool =
      new ThreadPool(std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace cdibot
