// Tests of CsnFrontier, the waitable monotone mark the pipeline hands work
// through: Advance is a CAS-max, WaitPast honours its deadline and stop
// predicate, and -- the stress case -- no wakeup is lost when many
// producers race many waiters with random deadlines and a concurrent stop.

#include "common/csn_frontier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace rollview {
namespace {

using Clock = CsnFrontier::Clock;
using std::chrono::milliseconds;

TEST(CsnFrontierTest, AdvanceIsMonotoneAndResetIsNot) {
  CsnFrontier f(5);
  EXPECT_EQ(f.value(), 5u);
  EXPECT_FALSE(f.Advance(3));
  EXPECT_FALSE(f.Advance(5));
  EXPECT_EQ(f.value(), 5u);
  EXPECT_TRUE(f.Advance(9));
  EXPECT_EQ(f.value(), 9u);
  f.Reset(2);
  EXPECT_EQ(f.value(), 2u);
}

TEST(CsnFrontierTest, WaitPastReturnsAtOnceWhenAlreadyPast) {
  CsnFrontier f(10);
  // A deadline in the past must not matter when the answer is known.
  EXPECT_TRUE(f.WaitPast(9, Clock::now() - milliseconds(1)));
  EXPECT_FALSE(f.WaitPast(10, Clock::now() - milliseconds(1)));
}

TEST(CsnFrontierTest, WaitPastTimesOutAtItsDeadline) {
  CsnFrontier f(1);
  const auto deadline = Clock::now() + milliseconds(20);
  EXPECT_FALSE(f.WaitPast(1, deadline));
  EXPECT_GE(Clock::now(), deadline);
}

TEST(CsnFrontierTest, AdvanceWakesAParkedWaiter) {
  CsnFrontier f(0);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    // The deadline is far away: only the advance can end this wait.
    woke.store(f.WaitPast(4, Clock::now() + std::chrono::seconds(30)));
  });
  std::this_thread::sleep_for(milliseconds(5));
  f.Advance(4);  // not past 4: the waiter must stay parked
  std::this_thread::sleep_for(milliseconds(5));
  EXPECT_FALSE(woke.load());
  const auto t0 = Clock::now();
  f.Advance(5);
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
}

// Rounds of N producers racing M waiters. In each round the producers
// CAS-max the CSNs (base, base + kSpan] in interleaved order and then stop,
// while every waiter blocks on a random target inside that span -- half
// with a long deadline (only a wakeup can end the wait in time), half with
// a short random one (only the timeout can). No later advance can rescue a
// waiter whose wakeup was lost, so a lost wakeup shows up as a long wait
// that runs to its deadline; a broken deadline shows up as a short wait
// returning early or far too late. A last group parks on an unreachable
// CSN throughout and must be released by a stop raised concurrently.
TEST(CsnFrontierTest, NoLostWakeupsUnderConcurrentProducersAndStop) {
  constexpr int kProducers = 4;
  constexpr int kWaiters = 8;
  constexpr int kStopWaiters = 3;
  constexpr int kRounds = 150;
  constexpr Csn kSpan = 64;
  constexpr Csn kUnreachable = kRounds * kSpan + 1000;
  // Generous: the host may be a loaded single core or a sanitizer build.
  constexpr auto kLongDeadline = std::chrono::seconds(20);
  constexpr auto kOvershootSlack = milliseconds(500);

  CsnFrontier f;
  std::barrier round_start(kProducers + kWaiters);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> parked{0};  // waits that found the frontier short
  auto fail = [&failures](const char* what, Csn target, Csn value) {
    if (failures.fetch_add(1) < 5) {
      ADD_FAILURE() << what << " (target " << target << ", frontier "
                    << value << ")";
    }
  };

  std::vector<std::thread> stop_waiters;
  std::atomic<int> released{0};
  for (int s = 0; s < kStopWaiters; ++s) {
    stop_waiters.emplace_back([&] {
      const bool past = f.WaitPast(kUnreachable, Clock::now() + kLongDeadline,
                                   [&stop] { return stop.load(); });
      if (past) fail("passed an unreachable csn", kUnreachable, f.value());
      if (!stop.load()) fail("returned before the stop", kUnreachable, 0);
      released.fetch_add(1);
    });
  }

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(0xF00 + p);
      for (int r = 0; r < kRounds; ++r) {
        round_start.arrive_and_wait();
        // Give the waiters a moment to park before the first advance.
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(0, 100)));
        const Csn base = static_cast<Csn>(r) * kSpan;
        for (Csn v = base + 1 + p; v <= base + kSpan; v += kProducers) {
          f.Advance(v);
          if (rng.Uniform(0, 3) == 0) std::this_thread::yield();
        }
      }
    });
  }
  for (int w = 0; w < kWaiters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0xA11 + w);
      for (int r = 0; r < kRounds; ++r) {
        round_start.arrive_and_wait();
        const Csn target =
            static_cast<Csn>(r) * kSpan + rng.Uniform(0, kSpan - 1);
        const bool long_wait = rng.Uniform(0, 1) == 0;
        const auto deadline =
            Clock::now() +
            (long_wait ? std::chrono::duration_cast<Clock::duration>(
                             kLongDeadline)
                       : std::chrono::microseconds(rng.Uniform(0, 200)));
        if (f.value() <= target) parked.fetch_add(1);
        const bool past = f.WaitPast(target, deadline, [] { return false; });
        const auto now = Clock::now();
        const Csn value = f.value();
        if (past && value <= target) fail("passed too soon", target, value);
        if (!past && now < deadline) fail("returned early", target, value);
        if (now > deadline + kOvershootSlack) {
          fail("slept past its deadline", target, value);
        }
        // The round's producers always pass the target and then stop, so
        // a long wait that reports false, or only returns at its deadline,
        // slept through the advance that satisfied it.
        if (long_wait && (!past || now >= deadline)) {
          fail("lost wakeup", target, value);
        }
      }
    });
  }

  // Raise the stop while producers and waiters are still running.
  std::this_thread::sleep_for(milliseconds(2));
  const auto stop_at = Clock::now();
  stop.store(true);
  f.WakeAll();
  for (std::thread& t : stop_waiters) t.join();
  EXPECT_LT(Clock::now() - stop_at, std::chrono::seconds(5))
      << "stop did not release its waiters promptly";
  EXPECT_EQ(released.load(), kStopWaiters);

  for (std::thread& t : threads) t.join();
  EXPECT_EQ(f.value(), kRounds * kSpan);
  EXPECT_EQ(failures.load(), 0);
  // The stress only means something if waits actually blocked.
  EXPECT_GT(parked.load(), kWaiters * kRounds / 4);
}

}  // namespace
}  // namespace rollview
