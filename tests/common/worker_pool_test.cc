// Tests of WorkerPool: the RunAll barrier completes regardless of pool
// capacity (the caller steals work), nested RunAll from worker threads
// cannot deadlock, and concurrent RunAll batches from several callers all
// finish.

#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

namespace rollview {
namespace {

std::vector<std::function<void()>> CountingTasks(size_t n,
                                                 std::atomic<int>* counter) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tasks.push_back([counter] {
      counter->fetch_add(1, std::memory_order_relaxed);
    });
  }
  return tasks;
}

TEST(WorkerPoolTest, RunAllExecutesEveryTask) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  pool.RunAll(CountingTasks(64, &ran));
  EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPoolTest, ZeroThreadPoolRunsOnCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.threads(), 0u);
  std::atomic<int> ran{0};
  std::set<std::thread::id> tids;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&] {
      tids.insert(std::this_thread::get_id());
      ran.fetch_add(1);
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(ran.load(), 8);
  // No workers exist, so every task ran inline on this thread.
  ASSERT_EQ(tids.size(), 1u);
  EXPECT_EQ(*tids.begin(), std::this_thread::get_id());
}

TEST(WorkerPoolTest, MoreTasksThanThreads) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  pool.RunAll(CountingTasks(100, &ran));
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPoolTest, EmptyBatchReturnsImmediately) {
  WorkerPool pool(2);
  pool.RunAll({});
}

TEST(WorkerPoolTest, NestedRunAllFromWorkerDoesNotDeadlock) {
  WorkerPool pool(2);
  std::atomic<int> inner_ran{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&] {
      // A barrier inside a barrier: the nested caller must drain its own
      // batch inline even when every pool thread is busy in the outer one.
      pool.RunAll(CountingTasks(8, &inner_ran));
    });
  }
  pool.RunAll(std::move(outer));
  EXPECT_EQ(inner_ran.load(), 32);
}

TEST(WorkerPoolTest, ConcurrentBarriersFromManyCallers) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        pool.RunAll(CountingTasks(7, &ran));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(ran.load(), 4 * 10 * 7);
}

TEST(WorkerPoolTest, BarrierIsABarrier) {
  // RunAll must not return while any task is still running.
  WorkerPool pool(4);
  std::atomic<int> running{0};
  std::atomic<bool> overlap{false};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&] {
      running.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
    });
  }
  pool.RunAll(std::move(tasks));
  if (running.load() != 0) overlap.store(true);
  EXPECT_FALSE(overlap.load());
}

}  // namespace
}  // namespace rollview
