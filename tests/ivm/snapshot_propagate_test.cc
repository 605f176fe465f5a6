// SnapshotPropagator: Eq. 2 over MVCC time travel -- lock-free propagation.

#include "ivm/snapshot_propagate.h"

#include <gtest/gtest.h>

#include "ivm/apply.h"
#include "ivm/rolling.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

class SnapshotPropagateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), 40, 25, 6, 33));
    env_.CatchUpCapture();
    ASSERT_OK_AND_ASSIGN(view_,
                         env_.views()->CreateView("V", workload_.ViewDef()));
    ASSERT_OK(env_.views()->Materialize(view_));
    t0_ = view_->propagate_from.load();
  }

  void RunUpdates(size_t txns, uint64_t seed) {
    UpdateStream r_stream(env_.db(), workload_.RStream(seed, seed), seed);
    UpdateStream s_stream(env_.db(), workload_.SStream(seed + 40, seed + 1),
                          seed + 1);
    for (size_t i = 0; i < txns; ++i) {
      ASSERT_OK(r_stream.RunTransaction());
      if (i % 2 == 0) ASSERT_OK(s_stream.RunTransaction());
    }
    env_.CatchUpCapture();
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(SnapshotPropagateTest, Eq1FormIsFullyTimed) {
  RunUpdates(12, 1);
  Csn target = env_.capture()->high_water_mark();
  SnapshotPropagator prop(env_.views(), view_,
                          std::make_unique<FixedInterval>(5));
  ASSERT_OK(prop.RunUntil(target));
  EXPECT_GE(view_->high_water_mark(), target);
  // Eq. 1's inclusion-exclusion terms make every sub-window exact.
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target, 4));
  EXPECT_EQ(prop.stats().exec.queries, prop.stats().intervals * 3);  // 2^2-1
}

TEST_F(SnapshotPropagateTest, Eq2FormIsExactOnlyAtIntervalBoundaries) {
  // The Sec. 3.3 granularity story, measured: without the all-delta
  // correction terms, the n-query Eq. 2 expansion is a correct delta
  // between interval endpoints but NOT inside intervals -- a pair whose
  // participants changed at different times within one interval is stamped
  // at the earliest change.
  RunUpdates(12, 1);
  Csn target = env_.capture()->high_water_mark();
  SnapshotPropagator prop(env_.views(), view_,
                          std::make_unique<FixedInterval>(5),
                          SnapshotForm::kEq2Endpoints);
  ASSERT_OK(prop.RunUntil(target));
  // Every (boundary, boundary] window is exact...
  const std::vector<Csn>& bounds = prop.boundaries();
  ASSERT_GE(bounds.size(), 3u);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    ASSERT_TRUE(
        CheckTimedDeltaWindow(env_.db(), view_, bounds[i], bounds[i + 1]));
  }
  ASSERT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, bounds.front(),
                                    bounds.back()));
  // ...but at least one intra-interval window is not (with enough churn,
  // some interval contains a multi-relation pair change).
  bool some_interior_wrong = false;
  for (size_t i = 0; i + 1 < bounds.size() && !some_interior_wrong; ++i) {
    for (Csn b = bounds[i] + 1; b < bounds[i + 1]; ++b) {
      if (!CheckTimedDeltaWindow(env_.db(), view_, bounds[i], b)) {
        some_interior_wrong = true;
        break;
      }
    }
  }
  EXPECT_TRUE(some_interior_wrong)
      << "expected Eq.2's coarse timestamps to miss at least one interior "
         "window on this workload";
}

TEST_F(SnapshotPropagateTest, TakesNoLocks) {
  RunUpdates(10, 2);
  Csn target = env_.capture()->high_water_mark();
  env_.db()->lock_manager()->ResetStats();
  SnapshotPropagator prop(env_.views(), view_,
                          std::make_unique<DrainInterval>());
  ASSERT_OK(prop.RunUntil(target));
  // Zero contention: the propagator never touched the lock manager.
  EXPECT_EQ(env_.db()->lock_manager()->GetStats().acquires, 0u);
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, target));
}

TEST_F(SnapshotPropagateTest, InterleavedWithUpdatesAndApply) {
  SnapshotPropagator prop(env_.views(), view_,
                          std::make_unique<TargetRowsInterval>(10));
  Applier applier(env_.views(), view_);
  Csn target = t0_;
  for (int round = 0; round < 5; ++round) {
    RunUpdates(4, 10 + round);
    target = env_.capture()->high_water_mark();
    ASSERT_OK(prop.RunUntil(target));
    ASSERT_OK(applier.RollTo(view_->high_water_mark()));
    DeltaRows oracle = OracleViewState(env_.db(), view_, view_->mv->csn());
    ASSERT_TRUE(NetEquivalent(oracle, view_->mv->AsDeltaRows()))
        << "round " << round;
  }
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target, 6));
}

TEST_F(SnapshotPropagateTest, AgreesWithCompensationBasedPropagation) {
  RunUpdates(10, 3);
  Csn target = env_.capture()->high_water_mark();
  SnapshotPropagator snap(env_.views(), view_,
                          std::make_unique<FixedInterval>(4));
  ASSERT_OK(snap.RunUntil(target));
  DeltaRows snap_delta = view_->view_delta->Scan(CsnRange{t0_, target});

  ASSERT_OK_AND_ASSIGN(View* v2,
                       env_.views()->CreateView("V2", workload_.ViewDef()));
  v2->propagate_from.store(t0_);
  v2->delta_hwm.Reset(t0_);
  RollingPropagator rolling(env_.views(), v2, /*uniform_interval=*/4);
  ASSERT_OK(rolling.RunUntil(target));
  DeltaRows rolling_delta = v2->view_delta->Scan(CsnRange{t0_, target});

  EXPECT_TRUE(NetEquivalent(snap_delta, rolling_delta));
  // Per-window agreement too (both are timed delta tables).
  Csn mid = t0_ + (target - t0_) / 2;
  EXPECT_TRUE(NetEquivalent(
      NetEffect(view_->view_delta->Scan(CsnRange{t0_, mid})),
      NetEffect(v2->view_delta->Scan(CsnRange{t0_, mid}))));
}

TEST_F(SnapshotPropagateTest, GcBelowFrontierIsSafe) {
  SnapshotPropagator prop(env_.views(), view_,
                          std::make_unique<DrainInterval>());
  for (int round = 0; round < 4; ++round) {
    RunUpdates(4, 50 + round);
    ASSERT_OK(prop.RunUntil(env_.capture()->high_water_mark()));
    // Versions below the frontier are never time-traveled to again.
    env_.db()->GarbageCollect(prop.high_water_mark());
  }
  Applier applier(env_.views(), view_);
  ASSERT_OK(applier.RollTo(view_->high_water_mark()));
  DeltaRows oracle = OracleViewState(env_.db(), view_, view_->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view_->mv->AsDeltaRows()));
}

}  // namespace
}  // namespace rollview
