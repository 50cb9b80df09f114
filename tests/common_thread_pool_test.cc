#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <system_error>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace cdibot {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.Submit([]() { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&counter]() { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForSmallerThanPool) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&sum](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, ParallelForBlockedIndexHoldsNoOtherBack) {
  // 256 indexes on 4 threads are claimed one at a time, so an index that
  // blocks its thread cannot hold back any other index: the rest finish on
  // the other three threads while index 0 waits for them.
  ThreadPool pool(4);
  std::atomic<int> others_done{0};
  std::atomic<int> seen_by_zero{-1};
  pool.ParallelFor(256, [&](size_t i) {
    if (i != 0) {
      ++others_done;
      return;
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (others_done.load() < 255 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    seen_by_zero = others_done.load();
  });
  EXPECT_EQ(seen_by_zero.load(), 255);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.Submit([&]() {
      const int now = ++in_flight;
      int expected = max_in_flight.load();
      while (now > expected &&
             !max_in_flight.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      --in_flight;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(ThreadPoolTest, DefaultPoolIsUsable) {
  EXPECT_GE(DefaultThreadPool().num_threads(), 2u);
  EXPECT_EQ(DefaultThreadPool().Submit([]() { return 3; }).get(), 3);
}

// --- Stress: the situations that deadlock naive pool implementations ------

TEST(ThreadPoolStressTest, ParallelForOnSingleThreadPool) {
  // With one worker there is no one to offload to: the caller must be able
  // to run every chunk itself instead of waiting on a worker that may be
  // the caller.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolStressTest, ParallelForFromInsideWorker) {
  // A pool task that itself calls ParallelFor must not block on helper
  // tasks that can never be scheduled (every worker could be inside such a
  // task simultaneously — the classic nested-fork deadlock).
  ThreadPool pool(2);
  std::vector<std::future<int>> outer;
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.Submit([&pool]() {
      std::atomic<int> sum{0};
      pool.ParallelFor(100, [&sum](size_t i) { sum += static_cast<int>(i); });
      return sum.load();
    }));
  }
  for (auto& f : outer) EXPECT_EQ(f.get(), 4950);
}

TEST(ThreadPoolStressTest, NestedParallelFor) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&pool, &total](size_t) {
    pool.ParallelFor(8, [&total](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolStressTest, SubmitFromWorkerDoesNotDeadlock) {
  // A task enqueueing follow-up work and waiting for completion through an
  // atomic (not .get(), which would deadlock on a saturated pool).
  ThreadPool pool(2);
  std::atomic<int> done{0};
  auto outer = pool.Submit([&pool, &done]() {
    for (int i = 0; i < 10; ++i) {
      (void)pool.Submit([&done]() { ++done; });
    }
  });
  outer.get();
  // Queued children drain even while the test thread just waits.
  while (done.load() < 10) std::this_thread::yield();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolStressTest, DestructionDrainsQueuedWork) {
  // Destroying the pool with a deep queue must run (not drop) every task:
  // futures obtained from Submit would otherwise throw broken_promise.
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([&ran]() {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++ran;
      }));
    }
    // Destructor joins here with most of the queue still pending.
  }
  EXPECT_EQ(ran.load(), 200);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// --- Shutdown: drain-then-reject semantics under teardown races ----------

TEST(ThreadPoolShutdownTest, ShutdownDrainsQueuedTasksBeforeJoining) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++ran;
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPoolShutdownTest, SubmitAfterShutdownIsRejectedWithBrokenPromise) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.accepting());
  std::atomic<bool> ran{false};
  auto f = pool.Submit([&ran]() { ran = true; });
  // The rejected task must never run, and the future must resolve (with an
  // error) rather than hang on a queue no worker will drain.
  try {
    f.get();
    FAIL() << "rejected Submit returned a value";
  } catch (const std::future_error& e) {
    EXPECT_EQ(e.code(), std::make_error_code(std::future_errc::broken_promise));
  }
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolShutdownTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.accepting());
  EXPECT_EQ(pool.Submit([]() { return 5; }).get(), 5);
  pool.Shutdown();
  pool.Shutdown();  // second call must be a no-op, not a double-join crash
  EXPECT_FALSE(pool.accepting());
}

TEST(ThreadPoolShutdownTest, SubmitsRacingDestructionDrainOrReject) {
  // Producers hammer Submit while the pool shuts down mid-traffic. Every
  // future must resolve: either the task ran (enqueued before shutdown) or
  // it reports broken_promise (rejected) — never a hang, never a crash.
  // The producers stop and join while the pool is still alive; only then
  // does its destructor run.
  std::atomic<int> ran{0};
  std::atomic<bool> stop{false};
  std::mutex futures_mu;
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&]() {
        while (!stop.load()) {
          auto f = pool.Submit([&ran]() { ++ran; });
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(f));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.Shutdown();  // races the producers' Submits
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop = true;
    for (auto& t : producers) t.join();
  }

  int executed = 0;
  int rejected = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++executed;
    } catch (const std::future_error& e) {
      EXPECT_EQ(e.code(),
                std::make_error_code(std::future_errc::broken_promise));
      ++rejected;
    }
  }
  EXPECT_EQ(executed, ran.load());
  EXPECT_EQ(executed + rejected, static_cast<int>(futures.size()));
  EXPECT_GT(executed, 0);  // some work got in before teardown began
}

TEST(ThreadPoolStressTest, ConcurrentParallelForsFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&pool, &total]() {
      pool.ParallelFor(500, [&total](size_t) { ++total; });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 3000);
}

}  // namespace
}  // namespace cdibot
