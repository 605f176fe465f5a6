// The join executor: count products, the min-timestamp rule, index probes
// vs hash joins, selections, projections, signs, snapshots, a transaction's
// own pending writes, and snapshot queries racing garbage collection (this
// binary runs under the `concurrency` ctest label, so TSan covers the race).

#include "ra/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "ra/net_effect.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableOptions opts;
    opts.indexed_columns = {0};
    ASSERT_OK_AND_ASSIGN(
        r_, db_.CreateTable("R",
                            Schema({Column{"a", ValueType::kInt64},
                                    Column{"rv", ValueType::kInt64}}),
                            opts));
    ASSERT_OK_AND_ASSIGN(
        s_, db_.CreateTable("S",
                            Schema({Column{"a", ValueType::kInt64},
                                    Column{"sv", ValueType::kInt64}}),
                            opts));
    auto txn = db_.Begin();
    // R: (1,10) (2,20) (2,21); S: (1,100) (2,200) (3,300)
    ASSERT_OK(db_.Insert(txn.get(), r_, {Value(int64_t{1}), Value(int64_t{10})}));
    ASSERT_OK(db_.Insert(txn.get(), r_, {Value(int64_t{2}), Value(int64_t{20})}));
    ASSERT_OK(db_.Insert(txn.get(), r_, {Value(int64_t{2}), Value(int64_t{21})}));
    ASSERT_OK(db_.Insert(txn.get(), s_, {Value(int64_t{1}), Value(int64_t{100})}));
    ASSERT_OK(db_.Insert(txn.get(), s_, {Value(int64_t{2}), Value(int64_t{200})}));
    ASSERT_OK(db_.Insert(txn.get(), s_, {Value(int64_t{3}), Value(int64_t{300})}));
    ASSERT_OK(db_.Commit(txn.get()));
    load_csn_ = txn->commit_csn();
  }

  Db db_;
  TableId r_ = kInvalidTableId;
  TableId s_ = kInvalidTableId;
  Csn load_csn_ = kNullCsn;
};

TEST_F(ExecutorTest, BasicEquiJoin) {
  JoinQuery q;
  q.terms = {TermSource::BaseCurrent(r_), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Commit(txn.get()));
  EXPECT_EQ(rows.size(), 3u);  // (1), (2)x2
  for (const DeltaRow& row : rows) {
    EXPECT_EQ(row.count, 1);
    EXPECT_EQ(row.ts, kNullCsn);
    ASSERT_EQ(row.tuple.size(), 4u);
    EXPECT_EQ(row.tuple[0], row.tuple[2]);  // join key equal
  }
}

TEST_F(ExecutorTest, DeltaDrivenProbeMultipliesCountsAndMinsTimestamps) {
  DeltaRows delta{DeltaRow({Value(int64_t{2}), Value(int64_t{999})}, -2, 42)};
  JoinQuery q;
  q.terms = {TermSource::Rows(r_, &delta), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get(), &stats));
  ASSERT_OK(db_.Commit(txn.get()));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, -2);  // -2 x +1
  EXPECT_EQ(rows[0].ts, 42u);    // min(42, null) = 42
  EXPECT_GE(stats.index_probes, 1u);  // S probed through its hash index
  EXPECT_EQ(stats.queries, 1u);
}

TEST_F(ExecutorTest, TwoDeltaTermsTakeMinTimestamp) {
  DeltaRows d1{DeltaRow({Value(int64_t{1}), Value(int64_t{0})}, +1, 30)};
  DeltaRows d2{DeltaRow({Value(int64_t{1}), Value(int64_t{0})}, -1, 20)};
  JoinQuery q;
  q.terms = {TermSource::Rows(r_, &d1), TermSource::Rows(s_, &d2)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, nullptr));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, -1);
  EXPECT_EQ(rows[0].ts, 20u);
}

TEST_F(ExecutorTest, SignNegatesOutput) {
  DeltaRows delta{DeltaRow({Value(int64_t{1}), Value(int64_t{0})}, +1, 5)};
  JoinQuery q;
  q.terms = {TermSource::Rows(r_, &delta), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  q.sign = -1;
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Commit(txn.get()));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, -1);
}

TEST_F(ExecutorTest, ResidualSelectionAndProjection) {
  JoinQuery q;
  q.terms = {TermSource::BaseCurrent(r_), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  // sigma: rv >= 20; pi: (a, sv) = concat columns 0 and 3.
  q.residual = Expr::Compare(Expr::CmpOp::kGe, Expr::Column(1),
                             Expr::Literal(Value(int64_t{20})));
  q.projection = {0, 3};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Commit(txn.get()));
  ASSERT_EQ(rows.size(), 2u);  // the two rv=2x rows
  for (const DeltaRow& row : rows) {
    ASSERT_EQ(row.tuple.size(), 2u);
    EXPECT_EQ(row.tuple[0].AsInt64(), 2);
    EXPECT_EQ(row.tuple[1].AsInt64(), 200);
  }
}

TEST_F(ExecutorTest, SnapshotTermsSeeThePast) {
  // Delete S(2,200), then join against the pre-delete snapshot.
  auto del = db_.Begin();
  ASSERT_OK_AND_ASSIGN(
      int64_t n,
      db_.DeleteTuple(del.get(), s_, {Value(int64_t{2}), Value(int64_t{200})}));
  ASSERT_EQ(n, 1);
  ASSERT_OK(db_.Commit(del.get()));

  JoinQuery q;
  q.terms = {TermSource::BaseSnapshot(r_, load_csn_),
             TermSource::BaseSnapshot(s_, load_csn_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, nullptr));
  EXPECT_EQ(rows.size(), 3u);  // pre-delete state

  q.terms = {TermSource::BaseSnapshot(r_, db_.stable_csn()),
             TermSource::BaseSnapshot(s_, db_.stable_csn())};
  ASSERT_OK_AND_ASSIGN(DeltaRows now, exec.Execute(q, nullptr));
  EXPECT_EQ(now.size(), 1u);  // only key 1 joins now
}

TEST_F(ExecutorTest, EmptyDeltaShortCircuits) {
  DeltaRows empty;
  JoinQuery q;
  q.terms = {TermSource::Rows(r_, &empty), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get(), &stats));
  ASSERT_OK(db_.Commit(txn.get()));
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(stats.index_probes, 0u);  // never touched S
}

TEST_F(ExecutorTest, CartesianFallbackWhenNoPredicate) {
  JoinQuery q;
  q.terms = {TermSource::BaseCurrent(r_), TermSource::BaseCurrent(s_)};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Commit(txn.get()));
  EXPECT_EQ(rows.size(), 9u);  // 3 x 3
}

TEST_F(ExecutorTest, ThreeWayChainWithIntermediateDelta) {
  TableOptions opts;
  opts.indexed_columns = {0};
  ASSERT_OK_AND_ASSIGN(
      TableId t, db_.CreateTable("T",
                                 Schema({Column{"a", ValueType::kInt64},
                                         Column{"tv", ValueType::kInt64}}),
                                 opts));
  auto load = db_.Begin();
  ASSERT_OK(db_.Insert(load.get(), t, {Value(int64_t{2}), Value(int64_t{7})}));
  ASSERT_OK(db_.Commit(load.get()));

  // Delta on the MIDDLE term: probes must extend both left and right.
  DeltaRows mid{DeltaRow({Value(int64_t{2}), Value(int64_t{0})}, +1, 3)};
  JoinQuery q;
  q.terms = {TermSource::BaseCurrent(r_), TermSource::Rows(s_, &mid),
             TermSource::BaseCurrent(t)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}, EquiJoin{1, 0, 2, 0}};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Commit(txn.get()));
  ASSERT_EQ(rows.size(), 2u);  // R has two a=2 rows
  for (const DeltaRow& row : rows) {
    EXPECT_EQ(row.ts, 3u);
    EXPECT_EQ(row.tuple.size(), 6u);
  }
}

TEST_F(ExecutorTest, CompositeJoinKeyAcrossTwoPredicates) {
  // Two equi predicates between the same pair of terms form a composite
  // hash-join key: R.a = S.a AND R.rv = S.sv.
  auto txn0 = db_.Begin();
  ASSERT_OK(db_.Insert(txn0.get(), r_, {Value(int64_t{9}), Value(int64_t{9})}));
  ASSERT_OK(db_.Insert(txn0.get(), s_, {Value(int64_t{9}), Value(int64_t{9})}));
  ASSERT_OK(db_.Insert(txn0.get(), s_, {Value(int64_t{9}), Value(int64_t{8})}));
  ASSERT_OK(db_.Commit(txn0.get()));

  DeltaRows delta{DeltaRow({Value(int64_t{9}), Value(int64_t{9})}, +1, 1)};
  JoinQuery q;
  // kRows term on the LEFT so S is hash-joined (no index on col 1 pair).
  q.terms = {TermSource::Rows(r_, &delta), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}, EquiJoin{0, 1, 1, 1}};
  auto txn = db_.Begin();
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Commit(txn.get()));
  // Only the (9,9)x(9,9) pair matches both columns.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple[3].AsInt64(), 9);
}

TEST_F(ExecutorTest, DeltaCountsBeyondUnitMultiplyThrough) {
  DeltaRows d1{DeltaRow({Value(int64_t{1}), Value(int64_t{0})}, +3, 4)};
  DeltaRows d2{DeltaRow({Value(int64_t{1}), Value(int64_t{0})}, -2, 9)};
  JoinQuery q;
  q.terms = {TermSource::Rows(r_, &d1), TermSource::Rows(s_, &d2)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, nullptr));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, -6);  // +3 x -2
  EXPECT_EQ(rows[0].ts, 4u);
}

TEST_F(ExecutorTest, ErrorsOnBadQueries) {
  JoinQuery empty;
  JoinExecutor exec(&db_);
  EXPECT_TRUE(exec.Execute(empty, nullptr).status().IsInvalidArgument());

  JoinQuery no_txn;
  no_txn.terms = {TermSource::BaseCurrent(r_)};
  EXPECT_TRUE(exec.Execute(no_txn, nullptr).status().IsInvalidArgument());

  JoinQuery future;
  future.terms = {TermSource::BaseSnapshot(r_, db_.stable_csn() + 10)};
  EXPECT_TRUE(exec.Execute(future, nullptr).status().IsOutOfRange());
}

// ---------------------------------------------------------------------------
// Unindexed tables: every base term is joined by a hash build.

Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

// Nested-loop oracle for R |><|_{a} S over explicit row lists, with an
// optional filter on the concatenated tuple.
DeltaRows NestedLoopJoin(const std::vector<Tuple>& r,
                         const std::vector<Tuple>& s,
                         const std::function<bool(const Tuple&)>& keep = {}) {
  DeltaRows out;
  for (const Tuple& rt : r) {
    for (const Tuple& st : s) {
      if (!(rt[0] == st[0])) continue;
      Tuple concat = rt;
      concat.insert(concat.end(), st.begin(), st.end());
      if (!keep || keep(concat)) {
        out.emplace_back(std::move(concat), 1, kNullCsn);
      }
    }
  }
  return out;
}

class ExecutorBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        r_, db_.CreateTable("R", Schema({Column{"a", ValueType::kInt64},
                                         Column{"rv", ValueType::kInt64}})));
    ASSERT_OK_AND_ASSIGN(
        s_, db_.CreateTable("S", Schema({Column{"a", ValueType::kInt64},
                                         Column{"sv", ValueType::kInt64}})));
    auto txn = db_.Begin();
    for (int64_t i = 0; i < 8; ++i) {
      r_rows_.push_back(T(i % 4, i));
      s_rows_.push_back(T(i % 4, 100 + i));
      ASSERT_OK(db_.Insert(txn.get(), r_, r_rows_.back()));
      ASSERT_OK(db_.Insert(txn.get(), s_, s_rows_.back()));
    }
    ASSERT_OK(db_.Commit(txn.get()));
    load_csn_ = txn->commit_csn();
  }

  JoinQuery SnapshotJoin(Csn t) const {
    JoinQuery q;
    q.terms = {TermSource::BaseSnapshot(r_, t), TermSource::BaseSnapshot(s_, t)};
    q.equi_joins = {EquiJoin{0, 0, 1, 0}};
    return q;
  }

  Db db_;
  TableId r_ = kInvalidTableId;
  TableId s_ = kInvalidTableId;
  std::vector<Tuple> r_rows_;
  std::vector<Tuple> s_rows_;
  Csn load_csn_ = kNullCsn;
};

TEST_F(ExecutorBuildTest, UnindexedSnapshotJoinHashBuildsAndCopiesBaseRows) {
  JoinExecutor exec(&db_);
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(DeltaRows rows,
                       exec.Execute(SnapshotJoin(load_csn_), nullptr, &stats));
  EXPECT_EQ(NetEffect(rows), NetEffect(NestedLoopJoin(r_rows_, s_rows_)));
  EXPECT_EQ(rows.size(), 16u);  // 4 keys x 2 x 2
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.rows_copied, 16u);  // both base scans, 8 rows each
  EXPECT_EQ(stats.rows_borrowed, 0u);
}

// A current-state read sees the executing transaction's own uncommitted
// writes, on both join strategies: hash build (unindexed R and S here) and
// per-row index probes (ExecutorTest's indexed tables, below).
TEST_F(ExecutorBuildTest, CurrentTermsSeeTheTxnsOwnPendingWrites) {
  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), r_, T(0, 999)));  // uncommitted write on R

  JoinQuery q;
  q.terms = {TermSource::BaseCurrent(r_), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  JoinExecutor exec(&db_);
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get()));
  ASSERT_OK(db_.Abort(txn.get()));

  // The 2 S rows with key 0 join the pending R row.
  std::vector<Tuple> r_seen = r_rows_;
  r_seen.push_back(T(0, 999));
  EXPECT_EQ(rows.size(), 16u + 2u);
  EXPECT_EQ(NetEffect(rows), NetEffect(NestedLoopJoin(r_seen, s_rows_)));
}

TEST_F(ExecutorTest, ProbedCurrentTermSeesTheTxnsOwnPendingWrites) {
  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), s_,
                       {Value(int64_t{2}), Value(int64_t{777})}));  // pending
  DeltaRows delta{DeltaRow({Value(int64_t{2}), Value(int64_t{5})}, 1, 9)};
  JoinQuery q;
  q.terms = {TermSource::Rows(r_, &delta), TermSource::BaseCurrent(s_)};
  q.equi_joins = {EquiJoin{0, 0, 1, 0}};
  JoinExecutor exec(&db_);
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, txn.get(), &stats));
  ASSERT_OK(db_.Abort(txn.get()));
  EXPECT_GE(stats.index_probes, 1u);
  // S key 2 holds the committed (2,200) and the pending (2,777).
  ASSERT_EQ(rows.size(), 2u);
  std::vector<Value> seen = {rows[0].tuple[3], rows[1].tuple[3]};
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<Value>{Value(int64_t{200}),
                                      Value(int64_t{777})}));
}

TEST_F(ExecutorBuildTest, PushedPredicatesGiveCorrectResults) {
  JoinExecutor exec(&db_);
  // A single-term predicate on S's payload (global column 3) is pushed into
  // S's build; a two-term one (rv + 100 < sv, columns 1 and 3) stays a
  // post-join residual. Each cut must match the nested-loop oracle.
  for (int64_t cut : {104, 106}) {
    JoinQuery q = SnapshotJoin(load_csn_);
    q.residual = Expr::And(
        Expr::Compare(Expr::CmpOp::kGe, Expr::Column(3),
                      Expr::Literal(Value(cut))),
        Expr::Compare(Expr::CmpOp::kLt,
                      Expr::Arith(Expr::ArithOp::kAdd, Expr::Column(1),
                                  Expr::Literal(Value(int64_t{100}))),
                      Expr::Column(3)));
    ExecStats stats;
    ASSERT_OK_AND_ASSIGN(DeltaRows rows, exec.Execute(q, nullptr, &stats));
    DeltaRows want = NestedLoopJoin(r_rows_, s_rows_, [cut](const Tuple& t) {
      return t[3] >= Value(cut) &&
             t[1].AsInt64() + 100 < t[3].AsInt64();
    });
    EXPECT_FALSE(want.empty()) << "cut=" << cut;
    EXPECT_EQ(NetEffect(rows), NetEffect(want)) << "cut=" << cut;
    // Rows below the cut were dropped before the join, not after it.
    EXPECT_EQ(stats.pushdown_filtered, static_cast<uint64_t>(cut - 100))
        << "cut=" << cut;
  }
}

// Snapshot queries racing Db::GarbageCollect return the rows of the write
// history at their snapshot. Each reader pins its snapshot first (the
// snapshot-reader contract), so GC can never collect under a query.
TEST_F(ExecutorBuildTest, SnapshotQueriesRaceGarbageCollection) {
  // Committed writer inserts into R, logged with their commit CSNs. The
  // writer holds log_mu across commit + append, so a reader that takes
  // log_mu after pinning sees every insert its snapshot covers.
  std::mutex log_mu;
  std::vector<std::pair<Csn, Tuple>> log;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t v = 1000;
    while (!stop.load()) {
      {
        std::lock_guard<std::mutex> lk(log_mu);
        auto txn = db_.Begin();
        Tuple row = T(v % 4, v);
        Status st = db_.Insert(txn.get(), r_, row);
        if (st.ok() && db_.Commit(txn.get()).ok()) {
          log.emplace_back(txn->commit_csn(), std::move(row));
        } else {
          db_.Abort(txn.get()).ok();
        }
      }
      ++v;
      db_.GarbageCollect(db_.stable_csn());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      JoinExecutor exec(&db_);
      for (int i = 0; i < 100; ++i) {
        Db::SnapshotHandle pin = db_.PinSnapshot();
        const Csn t_snap = pin.csn();
        auto got = exec.Execute(SnapshotJoin(t_snap), nullptr);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        std::vector<Tuple> r_at = r_rows_;
        {
          std::lock_guard<std::mutex> lk(log_mu);
          for (const auto& [csn, row] : log) {
            if (csn <= t_snap) r_at.push_back(row);
          }
        }
        ASSERT_EQ(NetEffect(got.value()),
                  NetEffect(NestedLoopJoin(r_at, s_rows_)))
            << "t=" << t_snap;
      }
    });
  }
  for (std::thread& th : readers) th.join();
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace rollview
