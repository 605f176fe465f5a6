// Tests of RollingPropagate (Figure 10): per-relation intervals, deferred
// compensation, query-list pruning, and the high-water mark of Theorem 4.3.

#include "ivm/rolling.h"

#include <gtest/gtest.h>

#include "ivm/propagate.h"
#include "ivm/region_tracker.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

class RollingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), /*r_rows=*/50,
                                            /*s_rows=*/30, /*join_domain=*/6,
                                            /*seed=*/11));
    env_.CatchUpCapture();
    ASSERT_OK_AND_ASSIGN(view_,
                         env_.views()->CreateView("V", workload_.ViewDef()));
    ASSERT_OK(env_.views()->Materialize(view_));
    t0_ = view_->propagate_from.load();
  }

  void RunUpdates(size_t txns, uint64_t seed, bool touch_s = true) {
    UpdateStream r_stream(env_.db(), workload_.RStream(1, seed), seed);
    UpdateStream s_stream(env_.db(), workload_.SStream(2, seed + 1),
                          seed + 1);
    for (size_t i = 0; i < txns; ++i) {
      ASSERT_OK(r_stream.RunTransaction());
      if (touch_s && i % 3 == 0) ASSERT_OK(s_stream.RunTransaction());
    }
    env_.CatchUpCapture();
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(RollingTest, NoUpdatesNoProgressNeeded) {
  RollingPropagator prop(env_.views(), view_, /*uniform_interval=*/5);
  ASSERT_OK_AND_ASSIGN(bool advanced, prop.Step());
  // Frontiers may advance over the quiet prefix via the skip path, or not
  // at all; either way the HWM must never pass the capture mark and nothing
  // may be appended to the view delta.
  (void)advanced;
  EXPECT_LE(prop.high_water_mark(), env_.db()->stable_csn());
  EXPECT_EQ(view_->view_delta->size(), 0u);
}

TEST_F(RollingTest, UniformIntervalsSatisfyInvariant) {
  RunUpdates(15, 21);
  Csn target = env_.capture()->high_water_mark();
  RollingPropagator prop(env_.views(), view_, /*uniform_interval=*/7);
  ASSERT_OK(prop.RunUntil(target));
  EXPECT_GE(prop.high_water_mark(), target);
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/4));
}

TEST_F(RollingTest, PerRelationIntervalsSatisfyInvariant) {
  RunUpdates(15, 22);
  Csn target = env_.capture()->high_water_mark();
  // Fine-grained on R (hot), coarse on S (cold) -- the star-schema shape.
  std::vector<std::unique_ptr<IntervalPolicy>> policies;
  policies.push_back(std::make_unique<FixedInterval>(3));
  policies.push_back(std::make_unique<FixedInterval>(50));
  RollingPropagator prop(env_.views(), view_, std::move(policies));
  ASSERT_OK(prop.RunUntil(target));
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/4));
}

TEST_F(RollingTest, AdaptiveTargetRowsPolicy) {
  RunUpdates(15, 23);
  Csn target = env_.capture()->high_water_mark();
  std::vector<std::unique_ptr<IntervalPolicy>> policies;
  policies.push_back(std::make_unique<TargetRowsInterval>(8));
  policies.push_back(std::make_unique<TargetRowsInterval>(8));
  RollingPropagator prop(env_.views(), view_, std::move(policies));
  ASSERT_OK(prop.RunUntil(target));
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/5));
}

TEST_F(RollingTest, HwmNeverExceedsSettledWork) {
  RunUpdates(10, 24);
  Csn target = env_.capture()->high_water_mark();
  RollingPropagator prop(env_.views(), view_, /*uniform_interval=*/4);
  Csn last_hwm = prop.high_water_mark();
  while (prop.high_water_mark() < target) {
    ASSERT_OK_AND_ASSIGN(bool advanced, prop.Step());
    if (!advanced) break;
    Csn hwm = prop.high_water_mark();
    EXPECT_GE(hwm, last_hwm) << "high-water mark went backwards";
    // Theorem 4.3: everything up to the mark must already satisfy the
    // invariant *mid-flight*, while query lists still hold uncompensated
    // strips.
    ASSERT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, hwm));
    last_hwm = hwm;
  }
  EXPECT_GE(prop.high_water_mark(), target);
}

TEST_F(RollingTest, InterleavedUpdatesAndRolling) {
  RollingPropagator prop(env_.views(), view_, /*uniform_interval=*/5);
  Csn target = t0_;
  for (int round = 0; round < 6; ++round) {
    RunUpdates(4, 300 + round);
    target = env_.capture()->high_water_mark();
    ASSERT_OK(prop.RunUntil(target));
  }
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/7));
}

TEST_F(RollingTest, SignedRegionCoverageMatchesFigures) {
  // The geometric claim of Figs 6-9: signed query rectangles tile exactly
  // the L-shaped region V_{t0, hwm}. Both compensation modes are exact for
  // two-relation views.
  RunUpdates(12, 25);
  Csn target = env_.capture()->high_water_mark();

  for (CompensationMode mode :
       {CompensationMode::kFrontier, CompensationMode::kDeferredFigure10}) {
    ASSERT_OK_AND_ASSIGN(
        View* v, env_.views()->CreateView(
                     mode == CompensationMode::kFrontier ? "Vf" : "Vd",
                     workload_.ViewDef()));
    v->propagate_from.store(t0_);
    v->delta_hwm.Reset(t0_);
    std::vector<std::unique_ptr<IntervalPolicy>> policies;
    policies.push_back(std::make_unique<FixedInterval>(4));
    policies.push_back(std::make_unique<FixedInterval>(9));
    RollingOptions options;
    options.compute_delta.skip_empty_ranges = false;  // record everything
    options.compensation = mode;
    RollingPropagator prop(env_.views(), v, std::move(policies), options);
    RegionTracker tracker;
    prop.runner()->set_region_tracker(&tracker);
    ASSERT_OK(prop.RunUntil(target));

    auto violation = tracker.CheckCoverage(t0_, prop.high_water_mark());
    EXPECT_FALSE(violation.has_value())
        << "signed coverage wrong at point (" << (*violation)[0] << ", "
        << (*violation)[1] << ")\nledger:\n"
        << tracker.Dump();
    EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), v, t0_,
                                      prop.high_water_mark()));
  }
}

TEST_F(RollingTest, FewerComputeDeltaCallsThanPropagateForSameHistory) {
  // Sec. 3.4: rolling defers and merges compensations, so it makes fewer
  // ComputeDelta calls than Propagate for the same history and interval.
  RunUpdates(20, 26);
  Csn target = env_.capture()->high_water_mark();

  // Deferred merging is the mechanism behind the fewer-queries claim; it
  // is exact for this two-relation view.
  RollingOptions options;
  options.compensation = CompensationMode::kDeferredFigure10;
  RollingPropagator rolling(env_.views(), view_, /*uniform_interval=*/5,
                            options);
  ASSERT_OK(rolling.RunUntil(target));
  uint64_t rolling_queries = rolling.runner()->stats().queries;

  ASSERT_OK_AND_ASSIGN(View* v2, env_.views()->CreateView(
                                     "V2", workload_.ViewDef()));
  v2->propagate_from.store(t0_);
  v2->delta_hwm.Reset(t0_);
  Propagator plain(env_.views(), v2,
                   std::make_unique<FixedInterval>(5));
  ASSERT_OK(plain.RunUntil(target));
  uint64_t plain_queries = plain.runner()->stats().queries;

  // Propagate compensates every forward query immediately; rolling defers
  // compensations and merges several strips' overlap into one query, so it
  // executes no more (usually fewer) propagation queries for the same
  // coverage.
  EXPECT_LE(rolling_queries, plain_queries);
  // And both maintained a correct delta.
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, target));
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), v2, t0_, target));
}

}  // namespace
}  // namespace rollview
