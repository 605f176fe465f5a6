// The apply driver: point-in-time refresh, monotone rolls, wall-clock
// resolution through the unit-of-work table, pruning, and MV merge safety.

#include "ivm/apply.h"

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "ivm/checkpoint.h"
#include "ivm/propagate.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

class ApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), 40, 30, 6, 3));
    env_.CatchUpCapture();
    ASSERT_OK_AND_ASSIGN(view_,
                         env_.views()->CreateView("V", workload_.ViewDef()));
    ASSERT_OK(env_.views()->Materialize(view_));
    t0_ = view_->propagate_from.load();
  }

  // Update + propagate everything available; returns the settled HWM.
  Csn UpdateAndPropagate(size_t txns, uint64_t seed) {
    UpdateStream r_stream(env_.db(), workload_.RStream(seed % 97 + 1, seed),
                          seed);
    for (size_t i = 0; i < txns; ++i) {
      EXPECT_OK(r_stream.RunTransaction());
    }
    env_.CatchUpCapture();
    Csn target = env_.capture()->high_water_mark();
    Propagator prop(env_.views(), view_, std::make_unique<DrainInterval>());
    EXPECT_OK(prop.RunUntil(target));
    return view_->high_water_mark();
  }

  // Moves the hwm over a window that holds no view-delta rows: a commit
  // the view does not see (it touches no base table), captured and
  // propagated. Returns the new hwm.
  Csn AdvanceHwmOverEmptyWindow() {
    std::unique_ptr<Txn> txn = env_.db()->Begin();
    EXPECT_OK(env_.db()->Commit(txn.get()));
    return UpdateAndPropagate(0, 99);
  }

  // The MV should equal the oracle state at its materialization time.
  ::testing::AssertionResult MvMatchesOracle() {
    DeltaRows oracle = OracleViewState(env_.db(), view_, view_->mv->csn());
    DeltaRows actual = view_->mv->AsDeltaRows();
    if (!NetEquivalent(oracle, actual)) {
      return ::testing::AssertionFailure()
             << "MV at csn " << view_->mv->csn() << " has "
             << actual.size() << " tuples, oracle has " << oracle.size();
    }
    return ::testing::AssertionSuccess();
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(ApplyTest, InitialMaterializationMatchesOracle) {
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(ApplyTest, RollToLatestTracksUpdates) {
  Csn hwm = UpdateAndPropagate(10, 1);
  Applier applier(env_.views(), view_);
  ASSERT_OK_AND_ASSIGN(Csn rolled, applier.RollToLatest());
  EXPECT_EQ(rolled, hwm);
  EXPECT_EQ(view_->mv->csn(), hwm);
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(ApplyTest, PointInTimeRollsToInteriorPoints) {
  Csn hwm = UpdateAndPropagate(12, 2);
  Applier applier(env_.views(), view_);
  // Roll in three hops through interior points; each stop must match the
  // oracle exactly (transaction-consistent intermediate states).
  Csn third = t0_ + (hwm - t0_) / 3;
  Csn two_thirds = t0_ + 2 * (hwm - t0_) / 3;
  for (Csn stop : {third, two_thirds, hwm}) {
    ASSERT_OK(applier.RollTo(stop));
    EXPECT_EQ(view_->mv->csn(), stop);
    EXPECT_TRUE(MvMatchesOracle()) << "at stop " << stop;
  }
  EXPECT_EQ(applier.stats().rolls, 3u);
}

TEST_F(ApplyTest, EveryReachablePointIsConsistent) {
  Csn hwm = UpdateAndPropagate(8, 3);
  // A fresh applier per target since rolls are forward-only.
  for (Csn stop = t0_; stop <= hwm; ++stop) {
    Applier applier(env_.views(), view_);
    ASSERT_OK(applier.RollTo(stop));
    ASSERT_TRUE(MvMatchesOracle()) << "at stop " << stop;
    // Reset the MV for the next iteration by re-materializing state at t0.
    view_->mv->Replace(ToCountMap(OracleViewState(env_.db(), view_, t0_)),
                       t0_);
  }
}

TEST_F(ApplyTest, RollBackwardsRejected) {
  Csn hwm = UpdateAndPropagate(5, 4);
  Applier applier(env_.views(), view_);
  ASSERT_OK(applier.RollTo(hwm));
  Status s = applier.RollTo(hwm - 1);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(ApplyTest, RollBeyondHwmRejected) {
  Csn hwm = UpdateAndPropagate(5, 5);
  Applier applier(env_.views(), view_);
  Status s = applier.RollTo(hwm + 100);
  EXPECT_TRUE(s.IsOutOfRange()) << s.ToString();
}

TEST_F(ApplyTest, PruningKeepsFutureRollsIntact) {
  Csn hwm = UpdateAndPropagate(10, 6);
  ApplierOptions opts;
  opts.prune_view_delta = true;
  Applier applier(env_.views(), view_, opts);
  Csn mid = t0_ + (hwm - t0_) / 2;
  ASSERT_OK(applier.RollTo(mid));
  EXPECT_GT(applier.stats().rows_pruned, 0u);
  // Rows at or below mid are gone, but the rest still rolls correctly.
  ASSERT_OK(applier.RollTo(hwm));
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(ApplyTest, WallClockPointInTimeRefresh) {
  // The paper's 8:00pm scenario: pick a wall-clock instant between two
  // batches of updates and refresh the view to exactly that moment, hours
  // later. We use a fake clock to make the instants deterministic.
  auto base = std::chrono::system_clock::now();
  WallTime fake_now = base;
  env_.db()->SetWallClock([&fake_now] { return fake_now; });

  fake_now = base + std::chrono::hours(16);  // 4:00pm
  UpdateStream r1(env_.db(), workload_.RStream(50, 71), 71);
  ASSERT_OK(r1.RunTransactions(5));
  env_.CatchUpCapture();
  Csn four_pm_csn = env_.db()->stable_csn();

  fake_now = base + std::chrono::hours(17);  // 5:00pm
  ASSERT_OK(r1.RunTransactions(5));
  env_.CatchUpCapture();

  // "Decide at 8:00pm to refresh the view to its 5:00pm state."
  fake_now = base + std::chrono::hours(20);
  Propagator prop(env_.views(), view_, std::make_unique<DrainInterval>());
  ASSERT_OK(prop.RunUntil(env_.capture()->high_water_mark()));

  Applier applier(env_.views(), view_);
  ASSERT_OK_AND_ASSIGN(
      Csn rolled,
      applier.RollToWallTime(base + std::chrono::hours(16) +
                             std::chrono::minutes(30)));  // 4:30pm
  EXPECT_EQ(rolled, four_pm_csn);  // last commit at or before 4:30pm
  EXPECT_TRUE(MvMatchesOracle());
}

// A roll over an empty view-delta window is metadata-only: the
// materialization time and the durable applied mark advance, but nothing
// commits, so no CSN is consumed and the contents (and digest) stay put.
TEST_F(ApplyTest, EmptyWindowRollIsMetadataOnly) {
  Csn hwm = UpdateAndPropagate(10, 7);
  Applier applier(env_.views(), view_);
  ASSERT_OK(applier.RollTo(hwm));
  EXPECT_EQ(applier.stats().empty_rolls, 0u);  // that window held rows
  Csn empty_hwm = AdvanceHwmOverEmptyWindow();
  ASSERT_GT(empty_hwm, hwm);
  ASSERT_TRUE(view_->view_delta->Scan(CsnRange{hwm, empty_hwm}).empty());

  const ViewDigest digest = view_->mv->digest();
  const Csn stable = env_.db()->stable_csn();
  const Lsn lsn = env_.db()->wal()->next_lsn();
  ASSERT_OK(applier.RollTo(empty_hwm));

  EXPECT_EQ(view_->mv->csn(), empty_hwm);
  EXPECT_EQ(applier.stats().rolls, 2u);
  EXPECT_EQ(applier.stats().empty_rolls, 1u);
  EXPECT_EQ(env_.db()->stable_csn(), stable) << "metadata roll committed";
  EXPECT_TRUE(view_->mv->digest() == digest);
  std::vector<WalRecord> tail;
  env_.db()->wal()->ReadFrom(lsn, 1000, &tail);
  int applied = 0;
  for (const WalRecord& rec : tail) {
    EXPECT_NE(rec.kind, WalRecord::Kind::kCommit);
    if (rec.kind != WalRecord::Kind::kViewApplied) continue;
    ViewAppliedBlob blob;
    ASSERT_TRUE(DecodeViewAppliedBlob(*rec.blob, &blob));
    EXPECT_EQ(blob.applied_csn, empty_hwm);
    ++applied;
  }
  EXPECT_EQ(applied, 1);
  // Def. 4.2: the unchanged contents are the view's state at the new CSN.
  EXPECT_TRUE(MvMatchesOracle());
}

// Scrub corruption drills model damage landing in a freshly rolled extent;
// the metadata-only path is still a roll, so the hook fires there too.
TEST_F(ApplyTest, CorruptionDrillFiresOnBothRollPaths) {
  Csn hwm = UpdateAndPropagate(6, 8);
  FaultInjector::Options fopts;
  fopts.seed = 0xD1;
  fopts.digest_tamper_probability = 1.0;
  FaultInjector fi(fopts);
  env_.db()->SetFaultInjector(&fi);
  Applier applier(env_.views(), view_);
  ASSERT_OK(applier.RollTo(hwm));
  EXPECT_EQ(fi.GetStats().injected_digest_tampers, 1u);

  env_.db()->SetFaultInjector(nullptr);
  Csn empty_hwm = AdvanceHwmOverEmptyWindow();
  env_.db()->SetFaultInjector(&fi);
  const ViewDigest tampered = view_->mv->digest();
  ASSERT_OK(applier.RollTo(empty_hwm));
  env_.db()->SetFaultInjector(nullptr);
  EXPECT_EQ(applier.stats().empty_rolls, 1u);
  EXPECT_EQ(fi.GetStats().injected_digest_tampers, 2u);
  EXPECT_FALSE(view_->mv->digest() == tampered);
}

TEST_F(ApplyTest, MergeRejectsNegativeCounts) {
  MaterializedView mv(view_->resolved.view_schema());
  mv.Replace({}, 1);
  DeltaRows bad{DeltaRow(Tuple{Value(int64_t{1}), Value(int64_t{1}),
                               Value(int64_t{1}), Value(int64_t{1}),
                               Value(int64_t{1}), Value(int64_t{1})},
                         -1, 2)};
  Status s = mv.Merge(bad, 2);
  EXPECT_TRUE(s.IsInternal());
  EXPECT_EQ(mv.csn(), 1u);  // untouched
  EXPECT_EQ(mv.cardinality(), 0u);
}

}  // namespace
}  // namespace rollview
