#include "common/worker_pool.h"

namespace rollview {

WorkerPool::WorkerPool(size_t threads) {
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Batch batch;
  batch.tasks = &tasks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    batches_.push_back(&batch);
  }
  work_cv_.notify_all();

  // The caller drains its own batch alongside the workers, then waits for
  // stragglers a worker may still be executing.
  std::unique_lock<std::mutex> lk(mu_);
  while (batch.next < tasks.size()) {
    size_t idx = batch.next++;
    lk.unlock();
    (*batch.tasks)[idx]();
    lk.lock();
    batch.done++;
  }
  batch.done_cv.wait(lk, [&] { return batch.done == tasks.size(); });
  for (auto it = batches_.begin(); it != batches_.end(); ++it) {
    if (*it == &batch) {
      batches_.erase(it);
      break;
    }
  }
}

void WorkerPool::WorkerMain() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    Batch* batch = nullptr;
    for (Batch* b : batches_) {
      if (b->next < b->tasks->size()) {
        batch = b;
        break;
      }
    }
    if (batch != nullptr) {
      size_t idx = batch->next++;
      lk.unlock();
      (*batch->tasks)[idx]();
      lk.lock();
      if (++batch->done == batch->tasks->size()) batch->done_cv.notify_all();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lk);
  }
}

}  // namespace rollview
