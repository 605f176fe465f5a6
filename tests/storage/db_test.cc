// Engine-level transaction semantics: visibility, atomicity, MVCC time
// travel, commit ordering, rollback, and garbage collection.

#include "storage/db.h"

#include <gtest/gtest.h>

#include <thread>

#include "tests/test_util.h"

namespace rollview {
namespace {

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({Column{"k", ValueType::kInt64},
                   Column{"v", ValueType::kString}});
    TableOptions opts;
    opts.indexed_columns = {0};
    auto r = db_.CreateTable("t", schema, opts);
    ASSERT_TRUE(r.ok());
    t_ = r.value();
  }

  Tuple Row(int64_t k, const std::string& v) {
    return Tuple{Value(k), Value(v)};
  }

  Db db_;
  TableId t_ = kInvalidTableId;
};

TEST_F(DbTest, InsertCommitScan) {
  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), t_, Row(1, "a")));
  ASSERT_OK(db_.Insert(txn.get(), t_, Row(2, "b")));
  ASSERT_OK(db_.Commit(txn.get()));
  EXPECT_GT(txn->commit_csn(), 0u);

  auto reader = db_.Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, db_.Scan(reader.get(), t_));
  EXPECT_EQ(rows.size(), 2u);
  ASSERT_OK(db_.Commit(reader.get()));
}

TEST_F(DbTest, OwnWritesVisibleBeforeCommit) {
  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), t_, Row(1, "a")));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, db_.Scan(txn.get(), t_));
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_OK_AND_ASSIGN(int64_t n, db_.DeleteTuple(txn.get(), t_, Row(1, "a")));
  EXPECT_EQ(n, 1);
  ASSERT_OK_AND_ASSIGN(rows, db_.Scan(txn.get(), t_));
  EXPECT_TRUE(rows.empty());
  ASSERT_OK(db_.Commit(txn.get()));
}

TEST_F(DbTest, AbortRollsBackInsertsAndDeletes) {
  auto setup = db_.Begin();
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "keep")));
  ASSERT_OK(db_.Commit(setup.get()));

  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), t_, Row(2, "junk")));
  ASSERT_OK_AND_ASSIGN(int64_t n,
                       db_.DeleteTuple(txn.get(), t_, Row(1, "keep")));
  EXPECT_EQ(n, 1);
  ASSERT_OK(db_.Abort(txn.get()));

  auto reader = db_.Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, db_.Scan(reader.get(), t_));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsString(), "keep");
  ASSERT_OK(db_.Commit(reader.get()));
}

TEST_F(DbTest, MultisetDuplicatesAndBoundedDelete) {
  auto txn = db_.Begin();
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(db_.Insert(txn.get(), t_, Row(7, "dup")));
  }
  ASSERT_OK(db_.Commit(txn.get()));

  auto del = db_.Begin();
  ASSERT_OK_AND_ASSIGN(int64_t n,
                       db_.DeleteTuple(del.get(), t_, Row(7, "dup"), 2));
  EXPECT_EQ(n, 2);
  ASSERT_OK(db_.Commit(del.get()));

  auto reader = db_.Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, db_.Scan(reader.get(), t_));
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_OK(db_.Commit(reader.get()));
}

TEST_F(DbTest, SnapshotScansAreStable) {
  auto t1 = db_.Begin();
  ASSERT_OK(db_.Insert(t1.get(), t_, Row(1, "v1")));
  ASSERT_OK(db_.Commit(t1.get()));
  Csn c1 = t1->commit_csn();

  auto t2 = db_.Begin();
  ASSERT_OK(db_.Update(t2.get(), t_, Row(1, "v1"), Row(1, "v2")));
  ASSERT_OK(db_.Commit(t2.get()));
  Csn c2 = t2->commit_csn();

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> at1, db_.SnapshotScan(t_, c1));
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0][1].AsString(), "v1");

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> at2, db_.SnapshotScan(t_, c2));
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0][1].AsString(), "v2");

  // Before any commit: empty.
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> at0, db_.SnapshotScan(t_, 0));
  EXPECT_TRUE(at0.empty());

  // Beyond stable: rejected.
  auto bad = db_.SnapshotScan(t_, db_.stable_csn() + 1);
  EXPECT_TRUE(bad.status().IsOutOfRange());
}

TEST_F(DbTest, UpdateIsDeletePlusInsertInWal) {
  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), t_, Row(1, "old")));
  ASSERT_OK(db_.Commit(txn.get()));

  Lsn before = db_.wal()->next_lsn();
  auto upd = db_.Begin();
  ASSERT_OK(db_.Update(upd.get(), t_, Row(1, "old"), Row(1, "new")));
  ASSERT_OK(db_.Commit(upd.get()));

  std::vector<WalRecord> recs;
  db_.wal()->ReadFrom(before, 100, &recs);
  ASSERT_EQ(recs.size(), 3u);  // delete + insert + commit
  EXPECT_EQ(recs[0].kind, WalRecord::Kind::kDelete);
  EXPECT_EQ(recs[1].kind, WalRecord::Kind::kInsert);
  EXPECT_EQ(recs[2].kind, WalRecord::Kind::kCommit);
  EXPECT_EQ(recs[2].commit_csn, upd->commit_csn());
}

TEST_F(DbTest, CommitOrderMatchesCsnOrder) {
  // Writers to disjoint rows run concurrently; their WAL commit records
  // must appear in CSN order (capture depends on it).
  constexpr int kThreads = 6;
  constexpr int kTxns = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxns; ++i) {
        auto txn = db_.Begin();
        Status s = db_.Insert(txn.get(), t_,
                              Tuple{Value(int64_t(t * 1000 + i)),
                                    Value(std::string("x"))});
        ASSERT_TRUE(s.ok()) << s.ToString();
        s = db_.Commit(txn.get());
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<WalRecord> recs;
  db_.wal()->ReadFrom(0, 1u << 20, &recs);
  Csn last = 0;
  size_t commits = 0;
  for (const WalRecord& r : recs) {
    if (r.kind != WalRecord::Kind::kCommit) continue;
    EXPECT_GT(r.commit_csn, last);
    last = r.commit_csn;
    ++commits;
  }
  EXPECT_EQ(commits, static_cast<size_t>(kThreads) * kTxns);
}

TEST_F(DbTest, IndexProbeSeesOnlyVisibleVersions) {
  auto txn = db_.Begin();
  ASSERT_OK(db_.Insert(txn.get(), t_, Row(5, "a")));
  ASSERT_OK(db_.Commit(txn.get()));
  auto del = db_.Begin();
  ASSERT_OK_AND_ASSIGN(int64_t n, db_.DeleteTuple(del.get(), t_, Row(5, "a")));
  EXPECT_EQ(n, 1);
  ASSERT_OK(db_.Commit(del.get()));

  auto reader = db_.Begin();
  ASSERT_OK(db_.LockTableShared(reader.get(), t_));
  std::vector<Tuple> hits =
      db_.table(t_)->CurrentProbe(reader->id(), 0, Value(int64_t{5}));
  EXPECT_TRUE(hits.empty());
  ASSERT_OK(db_.Commit(reader.get()));

  // Time travel still finds the old version through the index.
  std::vector<Tuple> old_hits =
      db_.table(t_)->SnapshotProbe(txn->commit_csn(), 0, Value(int64_t{5}));
  EXPECT_EQ(old_hits.size(), 1u);
}

TEST_F(DbTest, GarbageCollectionDropsDeadVersions) {
  auto ins = db_.Begin();
  ASSERT_OK(db_.Insert(ins.get(), t_, Row(1, "x")));
  ASSERT_OK(db_.Commit(ins.get()));
  auto del = db_.Begin();
  ASSERT_OK_AND_ASSIGN(int64_t n, db_.DeleteTuple(del.get(), t_, Row(1, "x")));
  ASSERT_EQ(n, 1);
  ASSERT_OK(db_.Commit(del.get()));

  EXPECT_EQ(db_.table(t_)->VersionCount(), 1u);
  db_.GarbageCollect(db_.stable_csn());
  EXPECT_EQ(db_.table(t_)->VersionCount(), 0u);

  // Survivors keep working after compaction remaps index slots.
  auto ins2 = db_.Begin();
  ASSERT_OK(db_.Insert(ins2.get(), t_, Row(2, "y")));
  ASSERT_OK(db_.Commit(ins2.get()));
  db_.GarbageCollect(db_.stable_csn());
  auto reader = db_.Begin();
  ASSERT_OK(db_.LockTableShared(reader.get(), t_));
  std::vector<Tuple> hits =
      db_.table(t_)->CurrentProbe(reader->id(), 0, Value(int64_t{2}));
  EXPECT_EQ(hits.size(), 1u);
  ASSERT_OK(db_.Commit(reader.get()));
}

TEST_F(DbTest, DeleteTupleMatchesTheWholeTupleNotJustTheKey) {
  auto setup = db_.Begin();
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "a")));
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "b")));
  ASSERT_OK(db_.Commit(setup.get()));

  auto txn = db_.Begin();
  ASSERT_OK_AND_ASSIGN(int64_t n, db_.DeleteTuple(txn.get(), t_, Row(1, "c")));
  EXPECT_EQ(n, 0);
  // A tuple without the key column matches nothing (and is not probed).
  ASSERT_OK_AND_ASSIGN(n, db_.DeleteTuple(txn.get(), t_, Tuple{}));
  EXPECT_EQ(n, 0);
  ASSERT_OK_AND_ASSIGN(n, db_.DeleteTuple(txn.get(), t_, Row(1, "b"), -1));
  EXPECT_EQ(n, 1);
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows, db_.Scan(txn.get(), t_));
  EXPECT_EQ(rows, std::vector<Tuple>{Row(1, "a")});
  ASSERT_OK(db_.Commit(txn.get()));
}

// Regression: a delete marks its copies before it takes their row lock. A
// lock wait that timed out left the marked copy out of the undo list, so
// the abort did not unmark it and no later transaction could delete it.
TEST(DbDeleteTest, FailedRowLockUnmarksOnAbort) {
  DbOptions options;
  options.lock_options.wait_timeout = std::chrono::milliseconds(20);
  Db db(options);
  TableOptions topts;
  topts.indexed_columns = {0};
  ASSERT_OK_AND_ASSIGN(
      TableId t,
      db.CreateTable("t", Schema({Column{"k", ValueType::kInt64}}), topts));
  const Tuple one{Value(int64_t{1})};
  auto setup = db.Begin();
  ASSERT_OK(db.Insert(setup.get(), t, one));
  ASSERT_OK(db.Commit(setup.get()));

  auto holder = db.Begin();  // holds key 1's row lock
  ASSERT_OK(db.Insert(holder.get(), t, one));
  auto victim = db.Begin();
  EXPECT_TRUE(db.DeleteTuple(victim.get(), t, one).status().IsBusy());
  ASSERT_OK(db.Abort(victim.get()));
  ASSERT_OK(db.Abort(holder.get()));

  auto del = db.Begin();
  ASSERT_OK_AND_ASSIGN(int64_t n, db.DeleteTuple(del.get(), t, one));
  EXPECT_EQ(n, 1);
  ASSERT_OK(db.Commit(del.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       db.SnapshotScan(t, db.stable_csn()));
  EXPECT_TRUE(rows.empty());
}

// Regression: GC compaction shifted version slots that an open writer still
// held, so its commit stamped the wrong versions and wrote past the end of
// the version vector. The table ended as {2} instead of {3}.
TEST_F(DbTest, GarbageCollectionLeavesAnOpenWritersVersionsInPlace) {
  auto setup = db_.Begin();
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "x")));
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(2, "x")));
  ASSERT_OK(db_.Commit(setup.get()));
  auto del = db_.Begin();
  ASSERT_OK_AND_ASSIGN(int64_t n, db_.DeleteTuple(del.get(), t_, Row(1, "x")));
  ASSERT_EQ(n, 1);
  ASSERT_OK(db_.Commit(del.get()));

  auto writer = db_.Begin();
  ASSERT_OK(db_.Insert(writer.get(), t_, Row(3, "x")));
  ASSERT_OK_AND_ASSIGN(n, db_.DeleteTuple(writer.get(), t_, Row(2, "x")));
  ASSERT_EQ(n, 1);
  db_.GarbageCollect(db_.stable_csn());
  ASSERT_OK(db_.Commit(writer.get()));

  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> rows,
                       db_.SnapshotScan(t_, db_.stable_csn()));
  EXPECT_EQ(rows, std::vector<Tuple>{Row(3, "x")});
  // With the writer finished, the next pass collects both dead versions.
  db_.GarbageCollect(db_.stable_csn());
  EXPECT_EQ(db_.table(t_)->VersionCount(), 1u);
}

TEST_F(DbTest, SchemaValidationRejectsBadTuples) {
  auto txn = db_.Begin();
  Status s = db_.Insert(txn.get(), t_, Tuple{Value("notint"), Value("x")});
  EXPECT_TRUE(s.IsInvalidArgument());
  s = db_.Insert(txn.get(), t_, Tuple{Value(int64_t{1})});
  EXPECT_TRUE(s.IsInvalidArgument());
  ASSERT_OK(db_.Abort(txn.get()));
}

TEST_F(DbTest, ReadByKeyProbesThroughTheIndex) {
  auto setup = db_.Begin();
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "a")));
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "b")));
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(2, "c")));
  ASSERT_OK(db_.Commit(setup.get()));

  auto txn = db_.Begin();
  ASSERT_OK_AND_ASSIGN(auto rows,
                       db_.ReadByKey(txn.get(), t_, 0, Value(int64_t{1})));
  EXPECT_EQ(rows.size(), 2u);
  ASSERT_OK_AND_ASSIGN(rows,
                       db_.ReadByKey(txn.get(), t_, 0, Value(int64_t{9})));
  EXPECT_TRUE(rows.empty());
  // Non-indexed column rejected.
  EXPECT_TRUE(db_.ReadByKey(txn.get(), t_, 1, Value("a"))
                  .status()
                  .IsInvalidArgument());
  ASSERT_OK(db_.Commit(txn.get()));
}

TEST_F(DbTest, ReadByKeyCoexistsWithOtherKeyWriters) {
  auto setup = db_.Begin();
  ASSERT_OK(db_.Insert(setup.get(), t_, Row(1, "a")));
  ASSERT_OK(db_.Commit(setup.get()));

  // A writer holds key 2's X row lock and the table IX lock...
  auto writer = db_.Begin();
  ASSERT_OK(db_.Insert(writer.get(), t_, Row(2, "b")));
  // ...and a reader of key 1 is NOT blocked (IS + S(row 1)).
  auto reader = db_.Begin();
  ASSERT_OK_AND_ASSIGN(auto rows,
                       db_.ReadByKey(reader.get(), t_, 0, Value(int64_t{1})));
  EXPECT_EQ(rows.size(), 1u);
  // A full Scan (table S) WOULD conflict with the writer's IX -- that is
  // precisely what ReadByKey avoids. (Not exercised here: it would block.)
  ASSERT_OK(db_.Commit(reader.get()));
  ASSERT_OK(db_.Commit(writer.get()));
}

TEST_F(DbTest, CatalogErrors) {
  EXPECT_TRUE(db_.CreateTable("t", Schema()).status().IsAlreadyExists());
  EXPECT_TRUE(db_.FindTable("nope").status().IsNotFound());
  auto txn = db_.Begin();
  EXPECT_TRUE(db_.Insert(txn.get(), 9999, Tuple{}).IsNotFound());
  ASSERT_OK(db_.Abort(txn.get()));
}

}  // namespace
}  // namespace rollview
