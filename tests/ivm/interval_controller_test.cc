// IntervalController: AIMD target and pause adjustment, driven entirely by
// synthetic ContentionSnapshot sequences. The controller is clock-free, so
// every test here is deterministic.

#include "ivm/interval_policy.h"

#include <gtest/gtest.h>

namespace rollview {
namespace {

ContentionSnapshot Calm() { return ContentionSnapshot{}; }

ContentionSnapshot OltpContended(uint64_t waits = 2) {
  ContentionSnapshot s;
  s.oltp_waits = waits;
  return s;
}

TEST(IntervalControllerTest, StartsAtClampedInitialTarget) {
  IntervalController::Options opts;
  opts.initial_target_rows = 10000;
  opts.max_target_rows = 4096;
  EXPECT_EQ(IntervalController(opts).target_rows(), 4096u);
  opts.initial_target_rows = 1;
  opts.min_target_rows = 16;
  EXPECT_EQ(IntervalController(opts).target_rows(), 16u);
}

TEST(IntervalControllerTest, ShrinksMultiplicativelyOnOltpWaits) {
  IntervalController::Options opts;
  opts.initial_target_rows = 256;
  opts.min_target_rows = 16;
  opts.shrink_factor = 0.5;
  IntervalController c(opts);
  c.Observe(OltpContended());
  EXPECT_EQ(c.target_rows(), 128u);
  c.Observe(OltpContended());
  EXPECT_EQ(c.target_rows(), 64u);
  // Timeouts count toward the same OLTP-suffering signal as waits.
  ContentionSnapshot timeouts = Calm();
  timeouts.oltp_timeouts = 1;
  c.Observe(timeouts);
  EXPECT_EQ(c.target_rows(), 32u);
  IntervalController::Stats st = c.GetStats();
  EXPECT_EQ(st.observations, 3u);
  EXPECT_EQ(st.shrinks, 3u);
  EXPECT_EQ(st.grows, 0u);
}

TEST(IntervalControllerTest, ClampsAtMinUnderSustainedContention) {
  IntervalController::Options opts;
  opts.initial_target_rows = 64;
  opts.min_target_rows = 16;
  IntervalController c(opts);
  for (int i = 0; i < 10; ++i) c.Observe(OltpContended());
  EXPECT_EQ(c.target_rows(), 16u);
  // At the floor further contention is not counted as a shrink.
  EXPECT_EQ(c.GetStats().shrinks, 2u);  // 64 -> 32 -> 16
}

TEST(IntervalControllerTest, GrowsAdditivelyWhenCalmAndClampsAtMax) {
  IntervalController::Options opts;
  opts.initial_target_rows = 256;
  opts.grow_rows = 32;
  opts.max_target_rows = 300;
  IntervalController c(opts);
  c.Observe(Calm());
  EXPECT_EQ(c.target_rows(), 288u);
  c.Observe(Calm());
  EXPECT_EQ(c.target_rows(), 300u);
  c.Observe(Calm());
  EXPECT_EQ(c.target_rows(), 300u);
  EXPECT_EQ(c.GetStats().grows, 2u);
}

TEST(IntervalControllerTest, MaintenanceVictimAbortsShrink) {
  IntervalController::Options opts;
  opts.initial_target_rows = 256;
  IntervalController c(opts);
  ContentionSnapshot s = Calm();
  s.maintenance_deadlock_victims = 1;
  c.Observe(s);
  EXPECT_EQ(c.target_rows(), 128u);
  // Maintenance *waits* are not contention (waiting is fine, losing
  // deadlocks is not), so the snapshot does not carry them: a window
  // without victims is calm.
  c.Observe(Calm());
  EXPECT_EQ(c.target_rows(), 128u + opts.grow_rows);
}

TEST(IntervalControllerTest, ThresholdsGateTheSignals) {
  IntervalController::Options opts;
  opts.initial_target_rows = 256;
  opts.oltp_wait_threshold = 5;
  opts.victim_threshold = 3;
  IntervalController c(opts);
  c.Observe(OltpContended(/*waits=*/4));  // below threshold -> calm
  EXPECT_EQ(c.target_rows(), 256u + opts.grow_rows);
  c.Observe(OltpContended(/*waits=*/5));  // at threshold -> shrink
  EXPECT_EQ(c.target_rows(), (256u + opts.grow_rows) / 2);
}

TEST(IntervalControllerTest, TransientStepFailureShrinksImmediately) {
  IntervalController::Options opts;
  opts.initial_target_rows = 256;
  opts.min_target_rows = 16;
  IntervalController c(opts);
  c.OnTransientStepFailure();
  EXPECT_EQ(c.target_rows(), 128u);
  IntervalController::Stats st = c.GetStats();
  EXPECT_EQ(st.transient_shrinks, 1u);
  EXPECT_EQ(st.observations, 0u);  // not an observation window
  // A windowed step_transient_failures count is also a contention signal.
  ContentionSnapshot s = Calm();
  s.step_transient_failures = 1;
  c.Observe(s);
  EXPECT_EQ(c.target_rows(), 64u);
}

TEST(IntervalControllerTest, PacingEscalatesUnderContentionAndDecaysCalm) {
  IntervalController::Options opts;
  opts.pause_initial = std::chrono::microseconds(500);
  opts.pause_max = std::chrono::microseconds(2000);
  IntervalController c(opts);
  EXPECT_EQ(c.recommended_pause().count(), 0);
  c.Observe(OltpContended());
  EXPECT_EQ(c.recommended_pause().count(), 500);
  c.Observe(OltpContended());
  EXPECT_EQ(c.recommended_pause().count(), 1000);
  // A transient step failure escalates through the same ladder ...
  c.OnTransientStepFailure();
  EXPECT_EQ(c.recommended_pause().count(), 2000);
  // ... and is capped at pause_max.
  c.Observe(OltpContended());
  EXPECT_EQ(c.recommended_pause().count(), 2000);
  EXPECT_EQ(c.GetStats().pace_escalations, 4u);
  // Calm windows halve the pause; below pause_initial it snaps to zero.
  c.Observe(Calm());
  EXPECT_EQ(c.recommended_pause().count(), 1000);
  c.Observe(Calm());
  EXPECT_EQ(c.recommended_pause().count(), 500);
  c.Observe(Calm());
  EXPECT_EQ(c.recommended_pause().count(), 0);
}

TEST(IntervalControllerTest, PacingStaysLiveAtTheRowFloor) {
  // At min_target_rows the row knob is exhausted; the pause must still
  // escalate -- it is the only remaining contention lever.
  IntervalController::Options opts;
  opts.initial_target_rows = 16;
  opts.min_target_rows = 16;
  opts.pause_initial = std::chrono::microseconds(100);
  IntervalController c(opts);
  c.OnTransientStepFailure();
  c.OnTransientStepFailure();
  EXPECT_EQ(c.target_rows(), 16u);
  EXPECT_EQ(c.GetStats().transient_shrinks, 0u);  // nothing to shrink
  EXPECT_EQ(c.recommended_pause().count(), 200);
}

TEST(IntervalControllerTest, PacingDisabledWhenInitialIsZero) {
  IntervalController::Options opts;
  opts.pause_initial = std::chrono::microseconds(0);
  IntervalController c(opts);
  c.OnTransientStepFailure();
  for (int i = 0; i < 5; ++i) c.Observe(OltpContended());
  EXPECT_EQ(c.recommended_pause().count(), 0);
  EXPECT_EQ(c.GetStats().pace_escalations, 0u);
}

}  // namespace
}  // namespace rollview
