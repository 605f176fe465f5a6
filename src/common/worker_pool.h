// Copyright 2026 The rollview Authors.
//
// WorkerPool: a fixed set of threads that help a caller run a batch of
// closures. Each partitioned propagation coordinator (ivm/parallel_rolling.h)
// owns one with P-1 threads for its P strips: the driver thread runs strips
// too, so a one-strip view runs inline with no thread at all.
//
// The one operation is RunAll, a barrier: it runs every task (the calling
// thread steals work too, so a RunAll of N tasks on a pool of any size --
// even zero threads -- always completes) and returns when all have
// finished. Tasks must not throw.

#ifndef ROLLVIEW_COMMON_WORKER_POOL_H_
#define ROLLVIEW_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rollview {

class WorkerPool {
 public:
  // `threads` may be 0: RunAll then executes everything on the caller.
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Executes every task and blocks until all complete. The caller
  // participates: it drains the batch alongside the workers, so progress
  // never depends on pool capacity and nested RunAll from a worker thread
  // cannot deadlock (the nested caller runs its own batch inline).
  void RunAll(std::vector<std::function<void()>> tasks);

  size_t threads() const { return threads_.size(); }

 private:
  struct Batch {
    std::vector<std::function<void()>>* tasks = nullptr;
    size_t next = 0;     // index of the next unclaimed task
    size_t done = 0;     // tasks finished
    std::condition_variable done_cv;
  };

  void WorkerMain();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<Batch*> batches_;  // active RunAll barriers
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rollview

#endif  // ROLLVIEW_COMMON_WORKER_POOL_H_
