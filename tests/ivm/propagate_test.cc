// The Propagate process (Figure 5): stepwise interval consumption,
// high-water-mark semantics (Theorem 4.2), interval policies.

#include "ivm/propagate.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace rollview {
namespace {

class PropagateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), 40, 30, 6, 19));
    env_.CatchUpCapture();
    ASSERT_OK_AND_ASSIGN(view_,
                         env_.views()->CreateView("V", workload_.ViewDef()));
    ASSERT_OK(env_.views()->Materialize(view_));
    t0_ = view_->propagate_from.load();
  }

  void RunUpdates(size_t txns, uint64_t seed) {
    UpdateStream r_stream(env_.db(), workload_.RStream(1, seed), seed);
    UpdateStream s_stream(env_.db(), workload_.SStream(2, seed + 1),
                          seed + 1);
    for (size_t i = 0; i < txns; ++i) {
      ASSERT_OK(r_stream.RunTransaction());
      if (i % 2 == 1) ASSERT_OK(s_stream.RunTransaction());
    }
    env_.CatchUpCapture();
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(PropagateTest, StepConsumesOneInterval) {
  RunUpdates(10, 1);
  Csn ready = env_.capture()->high_water_mark();
  Propagator prop(env_.views(), view_, std::make_unique<FixedInterval>(5));
  ASSERT_OK_AND_ASSIGN(bool advanced, prop.Step());
  EXPECT_TRUE(advanced);
  EXPECT_EQ(prop.high_water_mark(), std::min<Csn>(t0_ + 5, ready));
  EXPECT_EQ(view_->high_water_mark(), prop.high_water_mark());
}

TEST_F(PropagateTest, StepWithNothingReadyIsNoop) {
  Propagator prop(env_.views(), view_, std::make_unique<FixedInterval>(5));
  ASSERT_OK_AND_ASSIGN(bool advanced, prop.Step());
  EXPECT_FALSE(advanced);
}

TEST_F(PropagateTest, HwmValidAfterEveryStep) {
  RunUpdates(12, 2);
  Csn ready = env_.capture()->high_water_mark();
  Propagator prop(env_.views(), view_, std::make_unique<FixedInterval>(3));
  while (prop.high_water_mark() < ready) {
    ASSERT_OK_AND_ASSIGN(bool advanced, prop.Step());
    ASSERT_TRUE(advanced);
    // Theorem 4.2: after each complete iteration the delta is a timed delta
    // table from t_initial to t_cur.
    ASSERT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_,
                                      prop.high_water_mark()));
  }
}

TEST_F(PropagateTest, SmallAndLargeIntervalsAgree) {
  RunUpdates(15, 3);
  Csn ready = env_.capture()->high_water_mark();

  Propagator fine(env_.views(), view_, std::make_unique<FixedInterval>(1));
  ASSERT_OK(fine.RunUntil(ready));
  DeltaRows fine_delta = view_->view_delta->Scan(CsnRange{t0_, ready});

  ASSERT_OK_AND_ASSIGN(View* v2,
                       env_.views()->CreateView("V2", workload_.ViewDef()));
  v2->propagate_from.store(t0_);
  v2->delta_hwm.Reset(t0_);
  Propagator coarse(env_.views(), v2, std::make_unique<DrainInterval>());
  ASSERT_OK(coarse.RunUntil(ready));
  DeltaRows coarse_delta = v2->view_delta->Scan(CsnRange{t0_, ready});

  // delta=1 issues many more queries than drain-all...
  EXPECT_GT(fine.runner()->stats().queries,
            coarse.runner()->stats().queries);
  // ...but the results are net-equivalent.
  EXPECT_TRUE(NetEquivalent(fine_delta, coarse_delta));
}

TEST_F(PropagateTest, TargetRowsPolicyBoundsQuerySizes) {
  RunUpdates(20, 4);
  Csn ready = env_.capture()->high_water_mark();
  Propagator prop(env_.views(), view_,
                  std::make_unique<TargetRowsInterval>(6));
  ASSERT_OK(prop.RunUntil(ready));
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, ready));
  EXPECT_GE(prop.runner()->stats().queries, 2u);
}

TEST_F(PropagateTest, SpecialTableCsnResolutionAgrees) {
  // The prototype's round-trip for discovering a propagation query's
  // serialization time (Sec. 5) must agree with the engine's commit CSN.
  RunUpdates(6, 5);
  Csn ready = env_.capture()->high_water_mark();
  PropagatorOptions options;
  options.runner.use_special_table_csn_resolution = true;
  Propagator prop(env_.views(), view_, std::make_unique<DrainInterval>(),
                  options);
  ASSERT_OK(prop.RunUntil(ready));
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, ready));
}

TEST_F(PropagateTest, RunnerStatsClassifyQueries) {
  RunUpdates(8, 6);
  Csn ready = env_.capture()->high_water_mark();
  Propagator prop(env_.views(), view_, std::make_unique<DrainInterval>());
  ASSERT_OK(prop.RunUntil(ready));
  const RunnerStats& rs = prop.runner()->stats();
  EXPECT_EQ(rs.queries, rs.forward_queries + rs.comp_queries);
  EXPECT_GT(rs.forward_queries, 0u);
  EXPECT_GT(rs.comp_queries, 0u);  // both tables changed: compensation ran
  EXPECT_GT(rs.exec.queries, 0u);
}

}  // namespace
}  // namespace rollview
