#ifndef CDIBOT_COMMON_THREAD_POOL_H_
#define CDIBOT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cdibot {

/// Fixed-size worker pool backing the daily CDI job, the streaming engine
/// and the shards. Tasks are closures; Submit returns a future. The pool
/// drains and joins in its destructor, so a ThreadPool must outlive all
/// work submitted to it.
///
/// Shutdown follows drain-then-reject semantics: every task enqueued before
/// shutdown began is executed, and any Submit racing with (or arriving
/// after) shutdown is rejected — the task is never enqueued and its future
/// reports std::future_errc::broken_promise instead of hanging forever on a
/// queue no worker will ever drain. This is what lets a supervisor restart
/// a pipeline stage: the old stage's pool can be torn down mid-traffic
/// without stranding producers on futures that never resolve.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Begins shutdown (new Submits are rejected from this point on), drains
  /// every already-queued task, and joins the workers. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// False once Shutdown() has begun; a false return means Submit would
  /// reject. Advisory only — a racing Shutdown can begin right after.
  bool accepting() const;

  /// Enqueues `fn`; the returned future resolves with its result. During or
  /// after Shutdown the task is rejected: it never runs, and the returned
  /// future throws std::future_error(broken_promise) on get().
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        // Rejected: dropping the packaged_task here breaks its promise, so
        // the caller observes the rejection instead of blocking forever.
        NoteRejected();
        return result;
      }
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// ParallelFor splits its range into at most num_threads() * this many
  /// chunks. A caller that batches its own work (the daily job) makes the
  /// same number of batches, so each batch is one claim.
  static constexpr size_t kClaimsPerThread = 64;

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// iterations finish. Iterations are claimed in chunks of
  /// ceil(n / min(n, num_threads() * kClaimsPerThread)) contiguous indexes:
  /// one shared-counter bump per chunk keeps claim overhead low, and up to
  /// 64 chunks per thread keep uneven iteration costs balanced. The calling
  /// thread claims and executes chunks itself alongside the workers, so
  /// ParallelFor is safe to call from inside a pool task (and on a 1-thread
  /// pool) without deadlocking — nested calls simply run their chunks on
  /// the calling worker. `fn` must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  /// Bumps the rejected-submit counter (out of line so the obs dependency
  /// stays in the .cc).
  static void NoteRejected();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  bool joined_ = false;
  std::vector<std::thread> workers_;
};

/// A process-wide default pool sized to the hardware concurrency. Intended
/// for benches and examples; library code takes an explicit pool.
ThreadPool& DefaultThreadPool();

}  // namespace cdibot

#endif  // CDIBOT_COMMON_THREAD_POOL_H_
