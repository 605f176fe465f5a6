// Crash-injection recovery: a full maintenance history (updates, capture,
// rolling propagation, apply, periodic checkpoints) is crashed at dozens of
// seeded byte positions -- record boundaries, torn mid-record tails, and
// single-bit corruptions -- and recovered into a fresh engine. After every
// crash, resumed maintenance must converge to a view identical to
// from-scratch recomputation in the recovered engine, with zero
// re-propagated strips: a duplicated strip would double-count its rows and
// break both the MV-vs-oracle equality and the Definition 4.2 timed-delta
// window checks. Deterministic under the fixed seeds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "harness/crash_harness.h"
#include "ivm/checkpoint.h"
#include "ivm/maintenance.h"
#include "storage/wal_codec.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

// History + crash-image bundle shared by the tests below.
struct History {
  std::unique_ptr<TestEnv> env;
  TwoTableWorkload workload;
  View* view = nullptr;
  std::string encoded_wal;  // the full log at quiescence
  Csn frontier = kNullCsn;  // high-water mark the live view reached
};

// Builds a braided log: bulk load, materialization (initial checkpoint),
// then rounds of update transactions interleaved with propagation drains so
// commits, view-delta appends, cursor records, applied marks, and periodic
// checkpoints alternate throughout the log -- a cut anywhere lands in the
// middle of something.
History BuildHistory(uint64_t seed) {
  History h;
  CaptureOptions copts;
  copts.truncate_wal = false;  // the log IS the durable state
  h.env = std::make_unique<TestEnv>(copts);
  Db* db = h.env->db();

  auto workload = TwoTableWorkload::Create(db, 60, 40, 8, seed);
  EXPECT_TRUE(workload.ok());
  h.workload = workload.value();
  h.env->CatchUpCapture();
  auto view = h.env->views()->CreateView("V", h.workload.ViewDef());
  EXPECT_TRUE(view.ok());
  h.view = view.value();
  EXPECT_TRUE(h.env->views()->Materialize(h.view).ok());

  MaintenanceService::Options mopts;
  mopts.checkpoint_every_steps = 4;
  mopts.target_rows_per_query = 8;  // several strips per round
  mopts.apply_continuously = true;
  mopts.prune_view_delta = false;  // keep the full delta checkable
  MaintenanceService service(h.env->views(), h.view, mopts);

  UpdateStream r_updates(db, h.workload.RStream(1, seed + 1), seed + 1);
  UpdateStream s_updates(db, h.workload.SStream(2, seed + 2), seed + 2);
  for (int round = 0; round < 6; ++round) {
    EXPECT_TRUE(r_updates.RunTransactions(3).ok());
    EXPECT_TRUE(s_updates.RunTransactions(2).ok());
    h.env->CatchUpCapture();
    EXPECT_TRUE(service.Drain(db->stable_csn()).ok());
  }
  // stable_csn keeps advancing past the drain target (each propagation
  // step commits its own transactions), so the HWM the view actually
  // reached -- not stable_csn -- is what recovery must not lose.
  h.frontier = h.view->high_water_mark();
  h.encoded_wal = SnapshotEncodedWal(db);
  return h;
}

// Recovers from `damaged`, resumes maintenance to the recovered frontier,
// and checks the MV against from-scratch recomputation in the recovered
// engine. Returns false (without failing the test) only when the cut fell
// so early that the view's base tables do not exist yet; every other
// outcome must verify. `deep` additionally runs the timed-delta sweep and
// pushes fresh post-recovery updates through the resumed pipeline.
bool RecoverAndVerify(const History& h, const std::string& damaged,
                      bool deep, uint64_t seed) {
  auto recovered =
      CrashAndRecover(damaged, {{"V", h.workload.ViewDef()}});
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) return true;  // failure recorded above
  RecoveredSystem sys = std::move(recovered).value();

  View* view = sys.views->Find("V");
  if (view == nullptr) {
    // The cut predates the base tables; nothing view-shaped to verify.
    EXPECT_FALSE(sys.unregistered_views.empty());
    return false;
  }
  if (sys.report.views_recovered == 0) {
    // The cut predates the first checkpoint: cold-start fallback. The view
    // must still reach a correct state, just not incrementally.
    EXPECT_TRUE(sys.views->Materialize(view).ok());
  }

  MaintenanceService::Options mopts;
  mopts.checkpoint_every_steps = 3;
  mopts.apply_continuously = true;
  mopts.prune_view_delta = false;
  MaintenanceService service(sys.views.get(), view, mopts);
  Csn frontier = sys.db->stable_csn();
  EXPECT_TRUE(service.Drain(frontier).ok());
  EXPECT_GE(view->high_water_mark(), frontier);
  EXPECT_GE(view->mv->csn(), frontier);

  // MV == from-scratch recomputation at the MV's CSN. A re-propagated
  // (duplicate) strip would double-count its rows here.
  DeltaRows oracle = OracleViewState(sys.db.get(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()))
      << "recovered MV diverges from recomputation";

  if (deep) {
    // Definition 4.2 over the whole maintained window: every sub-window of
    // the recovered+resumed delta rolls the oracle correctly (this is the
    // strongest duplicate-strip detector: a duplicate breaks the windows
    // that straddle it even when the endpoint states happen to agree).
    Csn from = view->propagate_from.load(std::memory_order_acquire);
    Csn to = view->high_water_mark();
    if (to > from) {
      EXPECT_TRUE(CheckTimedDeltaSweep(sys.db.get(), view, from, to,
                                       std::max<Csn>(1, (to - from) / 7)));
    }

    // The resumed pipeline is live, not just replayed: new updates flow
    // end to end through the recovered cursors.
    UpdateStream fresh(sys.db.get(), h.workload.RStream(9, seed), seed);
    EXPECT_TRUE(fresh.RunTransactions(4).ok());
    sys.capture->CatchUp();
    Csn frontier2 = sys.db->stable_csn();
    EXPECT_TRUE(service.Drain(frontier2).ok());
    EXPECT_GE(view->mv->csn(), frontier2);
    DeltaRows oracle2 =
        OracleViewState(sys.db.get(), view, view->mv->csn());
    EXPECT_TRUE(NetEquivalent(oracle2, view->mv->AsDeltaRows()))
        << "post-recovery updates diverge from recomputation";
  }
  return true;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { history_ = new History(BuildHistory(0xC0FFEE)); }
  static void TearDownTestSuite() {
    delete history_;
    history_ = nullptr;
  }
  static History* history_;
};

History* CrashRecoveryTest::history_ = nullptr;

// The acceptance property: >= 50 random crash points -- truncations at
// arbitrary byte offsets (torn tails included) and single-bit corruptions --
// all recover to a view identical to recomputation, deterministically under
// the fixed seed.
TEST_F(CrashRecoveryTest, FiftyRandomCrashPointsRecoverExactly) {
  const History& h = *history_;
  ASSERT_GT(h.encoded_wal.size(), 1000u);

  Rng rng(0x63726173);  // "cras"
  int verified = 0;
  const int kTrials = 80;
  for (int trial = 0; trial < kTrials; ++trial) {
    CrashSpec spec;
    spec.keep_bytes = rng.Uniform(0, h.encoded_wal.size());
    if (trial % 3 == 2) {
      // Bit-flip corruption somewhere in the surviving bytes.
      spec.flip_bit = true;
      spec.flip_offset = rng.Uniform(0, h.encoded_wal.size() - 1);
    }
    std::string damaged = ApplyCrashSpec(h.encoded_wal, spec);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": keep " +
                 std::to_string(spec.keep_bytes) + "/" +
                 std::to_string(h.encoded_wal.size()) +
                 (spec.flip_bit
                      ? " flip@" + std::to_string(spec.flip_offset)
                      : ""));
    if (RecoverAndVerify(h, damaged, /*deep=*/trial % 10 == 0,
                         /*seed=*/0xD00D + trial)) {
      ++verified;
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(verified, 50) << "too few crash points produced a verifiable "
                             "view (cuts landed before the base tables)";
}

// A clean "crash" (full log, no damage) is pure recovery: everything the
// old engine knew is reconstructed, nothing is re-propagated, and the
// recovered view matches without running a single propagation step.
TEST_F(CrashRecoveryTest, CleanShutdownRecoversWithoutRepropagation) {
  const History& h = *history_;
  auto recovered =
      CrashAndRecover(h.encoded_wal, {{"V", h.workload.ViewDef()}});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredSystem sys = std::move(recovered).value();
  EXPECT_FALSE(sys.torn_tail);
  EXPECT_TRUE(sys.corruption.empty());
  EXPECT_EQ(sys.report.views_recovered, 1u);
  EXPECT_GT(sys.report.checkpoints_seen, 1u);  // initial + cadence
  EXPECT_GT(sys.report.cursor_records, 0u);

  View* view = sys.views->Find("V");
  ASSERT_NE(view, nullptr);
  // Cursors put the high-water mark at the old frontier with no new steps.
  EXPECT_GE(view->high_water_mark(), h.frontier);
  // Rolling the recovered delta to the frontier reproduces the oracle.
  MaintenanceService service(sys.views.get(), view);
  ASSERT_OK(service.Drain(sys.db->stable_csn()));
  DeltaRows oracle = OracleViewState(sys.db.get(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()));
}

// Crashing a recovered system again (including with zero new work) must be
// idempotent: the recovery checkpoint written at the end of Recover shadows
// the first generation's discarded tail, so generation two starts from
// exactly the state generation one recovered to.
TEST_F(CrashRecoveryTest, RecrashIsIdempotent) {
  const History& h = *history_;
  Rng rng(0x72657065);  // "repe"
  for (int trial = 0; trial < 5; ++trial) {
    CrashSpec first;
    // Land inside the maintenance suffix (past the bulk load).
    first.keep_bytes =
        rng.Uniform(h.encoded_wal.size() / 2, h.encoded_wal.size());
    std::string damaged = ApplyCrashSpec(h.encoded_wal, first);
    auto gen1 = CrashAndRecover(damaged, {{"V", h.workload.ViewDef()}});
    ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
    View* v1 = gen1.value().views->Find("V");
    ASSERT_NE(v1, nullptr);
    ASSERT_EQ(gen1.value().report.views_recovered, 1u);

    // Crash generation one immediately -- no new work, full surviving log.
    std::string wal2 = SnapshotEncodedWal(gen1.value().db.get());
    auto gen2 = CrashAndRecover(wal2, {{"V", h.workload.ViewDef()}});
    ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
    View* v2 = gen2.value().views->Find("V");
    ASSERT_NE(v2, nullptr);
    ASSERT_EQ(gen2.value().report.views_recovered, 1u);
    // Nothing recovered by generation one may be re-discarded or lost.
    EXPECT_EQ(v2->mv->csn(), v1->mv->csn());
    EXPECT_TRUE(NetEquivalent(v1->mv->AsDeltaRows(), v2->mv->AsDeltaRows()));
    EXPECT_EQ(v2->high_water_mark(), v1->high_water_mark());
    CursorState c1 = v1->LoadCursors();
    CursorState c2 = v2->LoadCursors();
    EXPECT_EQ(c2.tfwd, c1.tfwd);
    EXPECT_EQ(c2.tcomp, c1.tcomp);

    // Both generations converge to the same recomputation.
    MaintenanceService service(gen2.value().views.get(), v2);
    ASSERT_OK(service.Drain(gen2.value().db->stable_csn()));
    DeltaRows oracle =
        OracleViewState(gen2.value().db.get(), v2, v2->mv->csn());
    EXPECT_TRUE(NetEquivalent(oracle, v2->mv->AsDeltaRows()));
  }
}

// A roll over an empty view-delta window is metadata-only: it logs its
// kViewApplied mark with no commit behind it, so a log can end in a run of
// such marks. A crash at every record boundary of that tail must recover
// the MV to the last applied mark that survived, equal to recomputation
// there, and resume cleanly.
TEST(CrashRecoveryMetadataTailTest, MetadataOnlyAppliedTailRecovers) {
  CaptureOptions copts;
  copts.truncate_wal = false;
  TestEnv env(copts);
  Db* db = env.db();
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(db, 50, 30, 8, 0x7A11));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  MaintenanceService::Options mopts;
  mopts.prune_view_delta = false;
  MaintenanceService service(env.views(), view, mopts);
  UpdateStream updates(db, workload.RStream(1, 0x7A12), 0x7A12);
  ASSERT_OK(updates.RunTransactions(5));
  env.CatchUpCapture();
  ASSERT_OK(service.Drain(db->stable_csn()));

  // Commits the view does not see (no base-table writes) move the hwm over
  // empty windows; each drain then rolls metadata-only.
  const Lsn tail_start = db->wal()->next_lsn();
  const uint64_t empty_before = service.apply_stats().empty_rolls;
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<Txn> txn = db->Begin();
    ASSERT_OK(db->Commit(txn.get()));
    env.CatchUpCapture();
    ASSERT_OK(service.Drain(db->stable_csn()));
  }
  ASSERT_EQ(service.apply_stats().empty_rolls - empty_before, 3u);

  std::vector<WalRecord> records;
  db->wal()->ReadFrom(0, static_cast<size_t>(-1), &records);
  ASSERT_EQ(records.back().kind, WalRecord::Kind::kViewApplied);
  History h;
  h.workload = workload;
  Csn applied = kNullCsn;  // last applied mark in the surviving prefix
  for (size_t keep = 0; keep <= records.size(); ++keep) {
    if (keep > 0 && records[keep - 1].kind == WalRecord::Kind::kViewApplied) {
      ViewAppliedBlob blob;
      ASSERT_TRUE(DecodeViewAppliedBlob(*records[keep - 1].blob, &blob));
      applied = blob.applied_csn;
    }
    if (keep == 0 || records[keep - 1].lsn < tail_start) continue;
    SCOPED_TRACE("crash after record " + std::to_string(keep) + "/" +
                 std::to_string(records.size()));
    std::vector<WalRecord> prefix(records.begin(), records.begin() + keep);
    const std::string image = EncodeWal(prefix);
    ASSERT_OK_AND_ASSIGN(RecoveredSystem sys,
                         CrashAndRecover(image, {{"V", workload.ViewDef()}}));
    View* rv = sys.views->Find("V");
    ASSERT_NE(rv, nullptr);
    ASSERT_EQ(sys.report.views_recovered, 1u);
    EXPECT_EQ(rv->mv->csn(), applied);
    DeltaRows oracle = OracleViewState(sys.db.get(), rv, rv->mv->csn());
    EXPECT_TRUE(NetEquivalent(oracle, rv->mv->AsDeltaRows()))
        << "recovered MV diverges from recomputation";
    EXPECT_TRUE(RecoverAndVerify(h, image, /*deep=*/true, /*seed=*/keep));
  }
}

// Live crash schedule: a seeded FaultInjector decides *when* to crash while
// updaters and background maintenance are actually running, so the snapshot
// catches genuinely mid-flight strips (not just offline byte positions).
TEST(CrashScheduleTest, InjectedCrashPointsDuringLiveMaintenance) {
  CaptureOptions copts;
  copts.truncate_wal = false;
  TestEnv env(copts);
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 50, 30, 8, 0xBEEF));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  env.StartCapture();

  FaultInjector::Options fopts;
  fopts.seed = 0xCAFE;
  fopts.crash_probability = 0.15;
  FaultInjector fi(fopts);
  env.db()->SetFaultInjector(&fi);

  MaintenanceService::Options mopts;
  mopts.checkpoint_every_steps = 4;
  mopts.target_rows_per_query = 8;
  MaintenanceService service(env.views(), view, mopts);
  service.Start();

  UpdateStream updates(env.db(), workload.RStream(1, 77), 77);
  std::vector<std::string> snapshots;
  for (int txn = 0; txn < 40 && snapshots.size() < 6; ++txn) {
    ASSERT_OK(updates.RunTransaction());
    if (fi.MaybeCrashPoint()) {
      // Crash "now": whatever the WAL holds at this instant is the image.
      // Background propagation is mid-whatever-it-was-doing; the snapshot
      // is record-atomic (the log mutex), like a crash between writes.
      snapshots.push_back(SnapshotEncodedWal(env.db()));
    }
  }
  ASSERT_OK(service.Stop());
  env.db()->SetFaultInjector(nullptr);
  EXPECT_GE(fi.GetStats().crash_points, snapshots.size());
  ASSERT_GE(snapshots.size(), 3u) << "crash schedule fired too rarely";

  History h;
  h.workload = workload;  // only the def is needed by RecoverAndVerify
  for (size_t i = 0; i < snapshots.size(); ++i) {
    SCOPED_TRACE("live snapshot " + std::to_string(i));
    EXPECT_TRUE(RecoverAndVerify(h, snapshots[i], /*deep=*/i == 0,
                                 /*seed=*/0xF00D + i));
  }
}

}  // namespace
}  // namespace rollview
