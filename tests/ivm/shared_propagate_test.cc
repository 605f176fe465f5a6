// SharedViewGroup: one propagation stream feeding several
// selection/projection variants of the same join.

#include "ivm/shared_propagate.h"

#include <gtest/gtest.h>

#include "ivm/apply.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

class SharedPropagateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), 40, 25, 6, 44));
    env_.CatchUpCapture();
    // Tests replay history through the carrier's delta, so keep it.
    SharedViewGroup::Options gopts;
    gopts.prune_carrier_delta = false;
    ASSERT_OK_AND_ASSIGN(group_,
                         SharedViewGroup::Create(env_.views(), "carrier",
                                                 workload_.ViewDef(), gopts));
    // Member 1: selection on R.rval parity-ish (rval >= threshold).
    SpjViewDef m1 = workload_.ViewDef();
    m1.selection = Expr::Compare(Expr::CmpOp::kGe, Expr::Column(2),
                                 Expr::Literal(Value(int64_t{1} << 62)));
    ASSERT_OK_AND_ASSIGN(big_, group_->AddMember("big_vals", m1));
    // Member 2: projection to (rkey, sval).
    SpjViewDef m2 = workload_.ViewDef();
    m2.projection = {0, 5};
    ASSERT_OK_AND_ASSIGN(narrow_, group_->AddMember("narrow", m2));
    ASSERT_OK(group_->MaterializeAll());
    t0_ = group_->carrier()->propagate_from.load();
  }

  void RunUpdates(size_t txns, uint64_t seed) {
    UpdateStream r_stream(env_.db(), workload_.RStream(seed, seed), seed);
    UpdateStream s_stream(env_.db(), workload_.SStream(seed + 60, seed + 1),
                          seed + 1);
    for (size_t i = 0; i < txns; ++i) {
      ASSERT_OK(r_stream.RunTransaction());
      if (i % 2 == 0) ASSERT_OK(s_stream.RunTransaction());
    }
    env_.CatchUpCapture();
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  std::unique_ptr<SharedViewGroup> group_;
  View* big_ = nullptr;
  View* narrow_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(SharedPropagateTest, CreateValidation) {
  SpjViewDef filtered = workload_.ViewDef();
  filtered.selection = Expr::Literal(Value(int64_t{1}));
  EXPECT_TRUE(SharedViewGroup::Create(env_.views(), "bad", filtered)
                  .status()
                  .IsInvalidArgument());

  SpjViewDef other_joins = workload_.ViewDef();
  other_joins.joins[0].left_col = 0;
  EXPECT_TRUE(
      group_->AddMember("bad", other_joins).status().IsInvalidArgument());
}

TEST_F(SharedPropagateTest, MaterializeAllIsConsistent) {
  EXPECT_EQ(big_->mv->csn(), group_->carrier()->mv->csn());
  EXPECT_EQ(narrow_->mv->csn(), group_->carrier()->mv->csn());
  EXPECT_TRUE(NetEquivalent(OracleViewState(env_.db(), big_, big_->mv->csn()),
                            big_->mv->AsDeltaRows()));
  EXPECT_TRUE(
      NetEquivalent(OracleViewState(env_.db(), narrow_, narrow_->mv->csn()),
                    narrow_->mv->AsDeltaRows()));
}

TEST_F(SharedPropagateTest, MembersSatisfyInvariantAfterSharedPropagation) {
  RunUpdates(12, 1);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK(group_->RunUntil(target));
  EXPECT_GE(group_->high_water_mark(), target);
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), group_->carrier(), t0_,
                                   target, 5));
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), big_, t0_, target, 5));
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), narrow_, t0_, target, 5));
}

TEST_F(SharedPropagateTest, MembersApplyIndependently) {
  RunUpdates(10, 2);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK(group_->RunUntil(target));
  // Roll the narrow member halfway, the big member fully; the carrier's MV
  // stays put.
  Csn mid = t0_ + (big_->high_water_mark() - t0_) / 2;
  Applier narrow_applier(env_.views(), narrow_);
  ASSERT_OK(narrow_applier.RollTo(mid));
  Applier big_applier(env_.views(), big_);
  ASSERT_OK(big_applier.RollTo(big_->high_water_mark()));

  EXPECT_TRUE(
      NetEquivalent(OracleViewState(env_.db(), narrow_, mid),
                    narrow_->mv->AsDeltaRows()));
  EXPECT_TRUE(NetEquivalent(
      OracleViewState(env_.db(), big_, big_->mv->csn()),
      big_->mv->AsDeltaRows()));
  EXPECT_EQ(group_->carrier()->mv->csn(), t0_);
}

TEST_F(SharedPropagateTest, OnePropagationStreamForAllMembers) {
  RunUpdates(12, 3);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK(group_->RunUntil(target));
  uint64_t shared_queries = group_->propagator()->runner()->stats().queries;

  // An equivalent independent view costs the same number of propagation
  // queries *per view*; the group pays once for both members.
  ASSERT_OK_AND_ASSIGN(View* solo,
                       env_.views()->CreateView("solo", workload_.ViewDef()));
  solo->propagate_from.store(t0_);
  solo->delta_hwm.Reset(t0_);
  std::vector<std::unique_ptr<IntervalPolicy>> ps;
  ps.push_back(std::make_unique<TargetRowsInterval>(256));
  ps.push_back(std::make_unique<TargetRowsInterval>(256));
  RollingPropagator solo_prop(env_.views(), solo, std::move(ps));
  ASSERT_OK(solo_prop.RunUntil(target));
  uint64_t solo_queries = solo_prop.runner()->stats().queries;

  EXPECT_LE(shared_queries, solo_queries * 2);
  EXPECT_GT(group_->stats().carrier_rows_distributed, 0u);
}

TEST(SharedPropagateDefaultsTest, CarrierPruningKeepsMembersCorrect) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 30, 20, 5, 45));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(
      auto group,
      SharedViewGroup::Create(env.views(), "carrier", workload.ViewDef()));
  SpjViewDef proj = workload.ViewDef();
  proj.projection = {0, 5};
  ASSERT_OK_AND_ASSIGN(View* member, group->AddMember("m", proj));
  ASSERT_OK(group->MaterializeAll());
  Csn t0 = group->carrier()->propagate_from.load();

  UpdateStream stream(env.db(), workload.RStream(1, 5), 5);
  for (int round = 0; round < 5; ++round) {
    ASSERT_OK(stream.RunTransactions(4));
    env.CatchUpCapture();
    ASSERT_OK(group->RunUntil(env.capture()->high_water_mark()));
    // The carrier's delta stays bounded (pruned behind distribution)...
    EXPECT_EQ(group->carrier()->view_delta->CountInRange(
                  CsnRange{0, group->high_water_mark()}),
              0u);
  }
  // ...while members keep the full replayable history.
  EXPECT_TRUE(CheckTimedDeltaSweep(env.db(), member, t0,
                                   member->high_water_mark(), 4));
}

}  // namespace
}  // namespace rollview
