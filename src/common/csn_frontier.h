// Copyright 2026 The rollview Authors.
//
// CsnFrontier: a monotone CSN mark that threads can block on. The pipeline
// hands work downstream through three of them -- the engine's stable CSN
// (a commit wakes capture), the capture high-water mark (wakes the
// propagate driver) and each view's delta high-water mark (wakes the apply
// driver) -- so every stage sleeps until its upstream frontier moves.
//
// The value is an atomic, so value() is a plain load. Waiters park on a
// condition variable; Advance pays for the mutex + notify only while
// someone is parked (the waiter count is a Dekker pair with the value: a
// waiter registers before it re-checks the value, an advancer publishes
// the value before it checks for waiters, both sequentially consistent,
// so at least one side sees the other and no wakeup is lost -- also when
// the check comes later, as with Publish followed by Notify).
//
// kPipelineHeartbeat is the only timer on the hand-off path: every
// wait carries it as a deadline, so work that no frontier announces --
// scrub cadence, SLO evaluation, a capture poll stalled by fault injection,
// non-commit WAL records awaiting truncation -- still makes progress. It
// is a liveness backstop, not a latency term.

#ifndef ROLLVIEW_COMMON_CSN_FRONTIER_H_
#define ROLLVIEW_COMMON_CSN_FRONTIER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/csn.h"

namespace rollview {

inline constexpr std::chrono::milliseconds kPipelineHeartbeat{1};

class CsnFrontier {
 public:
  using Clock = std::chrono::steady_clock;

  explicit CsnFrontier(Csn initial = kNullCsn) : value_(initial) {}

  CsnFrontier(const CsnFrontier&) = delete;
  CsnFrontier& operator=(const CsnFrontier&) = delete;

  Csn value() const { return value_.load(std::memory_order_acquire); }

  // Raises the frontier to `csn` (no-op when it is already there or past)
  // and wakes every waiter the advance satisfies. Returns true if it moved.
  bool Advance(Csn csn) {
    if (!Publish(csn)) return false;
    Notify();
    return true;
  }

  // Advance without the wakeup, for a caller that must move the mark inside
  // its own critical section: it calls Notify() once it has left, so the
  // wake syscall is not paid under its lock.
  bool Publish(Csn csn) {
    Csn cur = value_.load(std::memory_order_relaxed);
    do {
      if (csn <= cur) return false;
    } while (!value_.compare_exchange_weak(cur, csn,
                                           std::memory_order_seq_cst));
    return true;
  }

  // Wakes the waiters a Publish satisfied; a load when none are parked.
  void Notify() {
    if (waiters_.load(std::memory_order_seq_cst) > 0) WakeAll();
  }

  // Sets the frontier to `csn` even if that moves it backwards. Only for
  // re-seeding a mark whose history was discarded (materialization,
  // recovery, test fixtures); pipeline progress goes through Advance.
  void Reset(Csn csn) {
    value_.store(csn, std::memory_order_seq_cst);
    Notify();
  }

  // Blocks until value() > csn, `deadline` passes, or `stop()` returns true
  // (re-evaluated after every wakeup; whoever makes it true must call
  // WakeAll). Returns value() > csn.
  template <typename StopFn>
  bool WaitPast(Csn csn, Clock::time_point deadline, StopFn stop) {
    if (value() > csn) return true;
    std::unique_lock<std::mutex> lk(mu_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait_until(lk, deadline, [&] {
      return value_.load(std::memory_order_seq_cst) > csn || stop();
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return value() > csn;
  }
  bool WaitPast(Csn csn, Clock::time_point deadline) {
    return WaitPast(csn, deadline, [] { return false; });
  }

  // Wakes every waiter to re-check its stop condition.
  void WakeAll() {
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
  }

 private:
  std::atomic<Csn> value_;
  std::atomic<int> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace rollview

#endif  // ROLLVIEW_COMMON_CSN_FRONTIER_H_
