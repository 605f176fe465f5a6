// Direct unit tests of the MVCC heap (visibility rules, abort markers,
// bounded deletes, the index-probed delete path, GC slot remapping) below
// the Db facade.

#include "storage/versioned_table.h"

#include <gtest/gtest.h>

#include <string>

namespace rollview {
namespace {

Schema OneCol() { return Schema({Column{"k", ValueType::kInt64}}); }

class VersionedTableTest : public ::testing::Test {
 protected:
  VersionedTableTest() : table_(1, "t", OneCol(), {0}) {}

  size_t CommittedInsert(int64_t k, Csn csn, TxnId txn = 7) {
    size_t slot = table_.AddPendingInsert(txn, Tuple{Value(k)});
    table_.CommitInsert(slot, csn);
    return slot;
  }

  VersionedTable table_;
};

TEST_F(VersionedTableTest, PendingInsertVisibleOnlyToOwner) {
  table_.AddPendingInsert(/*txn=*/5, Tuple{Value(int64_t{1})});
  EXPECT_EQ(table_.CurrentScan(5).size(), 1u);
  EXPECT_TRUE(table_.CurrentScan(6).empty());
  EXPECT_TRUE(table_.SnapshotScan(100).empty());
}

TEST_F(VersionedTableTest, AbortedInsertInvisibleEverywhere) {
  size_t slot = table_.AddPendingInsert(5, Tuple{Value(int64_t{1})});
  table_.AbortInsert(slot);
  EXPECT_TRUE(table_.CurrentScan(5).empty());
  EXPECT_TRUE(table_.SnapshotScan(100).empty());
  EXPECT_TRUE(table_.CurrentProbe(5, 0, Value(int64_t{1})).empty());
}

TEST_F(VersionedTableTest, PendingDeleteHidesFromOwnerOnly) {
  CommittedInsert(1, 10);
  std::vector<size_t> slots;
  int64_t n = table_.MarkPendingDeletes(/*txn=*/5, Tuple{Value(int64_t{1})},
                                        -1, &slots);
  ASSERT_EQ(n, 1);
  EXPECT_TRUE(table_.CurrentScan(5).empty());      // owner sees the delete
  EXPECT_EQ(table_.CurrentScan(6).size(), 1u);     // others do not (yet)
  table_.AbortDelete(slots[0]);
  EXPECT_EQ(table_.CurrentScan(5).size(), 1u);     // rollback restores
}

TEST_F(VersionedTableTest, DeleteLimitAndDoubleMarkProtection) {
  CommittedInsert(1, 10);
  CommittedInsert(1, 10);
  CommittedInsert(1, 10);
  std::vector<size_t> slots;
  EXPECT_EQ(table_.MarkPendingDeletes(5, Tuple{Value(int64_t{1})}, 2, &slots),
            2);
  EXPECT_EQ(slots, (std::vector<size_t>{0, 1}));  // lowest slots first
  // Already-marked rows are not re-marked by a second call.
  std::vector<size_t> slots2;
  EXPECT_EQ(table_.MarkPendingDeletes(5, Tuple{Value(int64_t{1})}, -1, &slots2),
            1);
  EXPECT_EQ(slots2, std::vector<size_t>{2});
}

TEST_F(VersionedTableTest, SnapshotVisibilityWindow) {
  CommittedInsert(1, 10);
  std::vector<size_t> slots;
  table_.MarkPendingDeletes(5, Tuple{Value(int64_t{1})}, 1, &slots);
  table_.CommitDelete(slots[0], 20);
  EXPECT_TRUE(table_.SnapshotScan(9).empty());
  EXPECT_EQ(table_.SnapshotScan(10).size(), 1u);
  EXPECT_EQ(table_.SnapshotScan(19).size(), 1u);
  EXPECT_TRUE(table_.SnapshotScan(20).empty());
  EXPECT_EQ(table_.SnapshotProbe(15, 0, Value(int64_t{1})).size(), 1u);
  EXPECT_TRUE(table_.SnapshotProbe(25, 0, Value(int64_t{1})).empty());
}

TEST_F(VersionedTableTest, LiveSizeAndVersionCount) {
  CommittedInsert(1, 10);
  CommittedInsert(2, 11);
  std::vector<size_t> slots;
  table_.MarkPendingDeletes(5, Tuple{Value(int64_t{1})}, 1, &slots);
  table_.CommitDelete(slots[0], 12);
  EXPECT_EQ(table_.LiveSize(), 1u);
  EXPECT_EQ(table_.VersionCount(), 2u);
}

TEST_F(VersionedTableTest, GcRemapsIndexSlots) {
  // Interleave dead and live versions so GC compaction remaps slots.
  CommittedInsert(1, 10);
  CommittedInsert(2, 11);
  CommittedInsert(3, 12);
  std::vector<size_t> slots;
  table_.MarkPendingDeletes(5, Tuple{Value(int64_t{2})}, 1, &slots);
  table_.CommitDelete(slots[0], 13);
  table_.GarbageCollect(13);
  EXPECT_EQ(table_.VersionCount(), 2u);
  // Probes through the index must still find the survivors.
  EXPECT_EQ(table_.SnapshotProbe(13, 0, Value(int64_t{1})).size(), 1u);
  EXPECT_EQ(table_.SnapshotProbe(13, 0, Value(int64_t{3})).size(), 1u);
  EXPECT_TRUE(table_.SnapshotProbe(13, 0, Value(int64_t{2})).empty());
}

Tuple KV(int64_t k, const std::string& v) { return Tuple{Value(k), Value(v)}; }

std::vector<size_t> MarkedSlots(VersionedTable* t, TxnId txn,
                                const Tuple& tuple, int64_t limit) {
  std::vector<size_t> slots;
  t->MarkPendingDeletes(txn, tuple, limit, &slots);
  return slots;
}

TEST(VersionedTableProbeTest, KeyMatchWithOtherColumnsDifferentMarksNothing) {
  VersionedTable t(1, "t",
                   Schema({Column{"k", ValueType::kInt64},
                           Column{"v", ValueType::kString}}),
                   {0});
  t.CommitInsert(t.AddPendingInsert(7, KV(1, "a")), 10);
  t.CommitInsert(t.AddPendingInsert(7, KV(2, "b")), 10);
  EXPECT_TRUE(MarkedSlots(&t, 5, KV(1, "b"), -1).empty());
  EXPECT_TRUE(MarkedSlots(&t, 5, KV(3, "a"), -1).empty());  // absent key
  EXPECT_EQ(MarkedSlots(&t, 5, KV(1, "a"), -1), (std::vector<size_t>{0}));
  EXPECT_EQ(t.CurrentScan(5), (std::vector<Tuple>{KV(2, "b")}));
}

TEST_F(VersionedTableTest, OwnPendingInsertIsDeletableByItsWriterOnly) {
  size_t slot = table_.AddPendingInsert(5, Tuple{Value(int64_t{1})});
  EXPECT_TRUE(MarkedSlots(&table_, 6, Tuple{Value(int64_t{1})}, -1).empty());
  EXPECT_EQ(MarkedSlots(&table_, 5, Tuple{Value(int64_t{1})}, -1),
            (std::vector<size_t>{slot}));
  EXPECT_TRUE(table_.CurrentScan(5).empty());
}

TEST_F(VersionedTableTest, PendingDeleteIsNotMarkedAgain) {
  CommittedInsert(1, 10);
  EXPECT_EQ(MarkedSlots(&table_, 5, Tuple{Value(int64_t{1})}, -1).size(), 1u);
  // Neither the owner nor another writer re-marks a pending delete.
  EXPECT_TRUE(MarkedSlots(&table_, 5, Tuple{Value(int64_t{1})}, -1).empty());
  EXPECT_TRUE(MarkedSlots(&table_, 6, Tuple{Value(int64_t{1})}, -1).empty());
}

TEST_F(VersionedTableTest, AbortedInsertIsSkipped) {
  table_.AbortInsert(table_.AddPendingInsert(5, Tuple{Value(int64_t{1})}));
  size_t live = CommittedInsert(1, 10);
  EXPECT_EQ(MarkedSlots(&table_, 6, Tuple{Value(int64_t{1})}, -1),
            (std::vector<size_t>{live}));
}

TEST_F(VersionedTableTest, ProbeFollowsGcRemappedSlots) {
  size_t dead = CommittedInsert(1, 10);
  CommittedInsert(2, 11);
  CommittedInsert(1, 12);
  std::vector<size_t> slots;
  table_.MarkPendingDeletes(5, Tuple{Value(int64_t{1})}, 1, &slots);
  ASSERT_EQ(slots, std::vector<size_t>{dead});
  table_.CommitDelete(dead, 13);
  table_.GarbageCollect(13);
  ASSERT_EQ(table_.VersionCount(), 2u);
  // The surviving copy of 1 moved from slot 2 to slot 1.
  slots.clear();
  table_.MarkPendingDeletes(6, Tuple{Value(int64_t{1})}, -1, &slots);
  ASSERT_EQ(slots, std::vector<size_t>{1});
  table_.CommitDelete(slots[0], 14);
  EXPECT_EQ(table_.SnapshotScan(14), (std::vector<Tuple>{{Value(int64_t{2})}}));
}

TEST(VersionedTableProbeTest, UnindexedTableScansForTheTuple) {
  VersionedTable t(1, "t", OneCol(), {});
  t.CommitInsert(t.AddPendingInsert(7, Tuple{Value(int64_t{1})}), 10);
  t.CommitInsert(t.AddPendingInsert(7, Tuple{Value(int64_t{2})}), 10);
  t.CommitInsert(t.AddPendingInsert(7, Tuple{Value(int64_t{2})}), 10);
  EXPECT_TRUE(MarkedSlots(&t, 5, Tuple{Value(int64_t{3})}, -1).empty());
  EXPECT_EQ(MarkedSlots(&t, 5, Tuple{Value(int64_t{2})}, 1),
            (std::vector<size_t>{1}));
  EXPECT_EQ(MarkedSlots(&t, 5, Tuple{Value(int64_t{2})}, -1),
            (std::vector<size_t>{2}));
  EXPECT_EQ(t.CurrentScan(5), (std::vector<Tuple>{{Value(int64_t{1})}}));
}

TEST_F(VersionedTableTest, GcLeavesTheTableAloneWhilePendingVersionsExist) {
  CommittedInsert(1, 10);
  std::vector<size_t> slots;
  table_.MarkPendingDeletes(5, Tuple{Value(int64_t{1})}, 1, &slots);
  table_.CommitDelete(slots[0], 11);  // slot 0 is dead below 11
  size_t pending_insert = table_.AddPendingInsert(6, Tuple{Value(int64_t{2})});
  table_.GarbageCollect(11);
  EXPECT_EQ(table_.VersionCount(), 2u);  // compaction would shift the insert
  table_.CommitInsert(pending_insert, 12);
  table_.GarbageCollect(11);
  EXPECT_EQ(table_.VersionCount(), 1u);
  EXPECT_EQ(table_.SnapshotScan(12), (std::vector<Tuple>{{Value(int64_t{2})}}));
  // An aborted writer releases its hold too.
  table_.AbortInsert(table_.AddPendingInsert(7, Tuple{Value(int64_t{3})}));
  table_.GarbageCollect(12);
  EXPECT_EQ(table_.VersionCount(), 1u);
}

}  // namespace
}  // namespace rollview
