// Copyright 2026 The rollview Authors.
//
// VersionedTable: a multi-version heap for one base table.
//
// Each logical insert creates a version; each delete closes one. Versions
// carry [begin_csn, end_csn) commit-time validity. Uncommitted changes are
// marked with the writing transaction's id and stamped with the commit CSN
// at commit time, under the transaction manager's commit mutex -- so a
// version's CSN window becomes visible atomically with the commit.
//
// Two read paths:
//  * Current reads (inside a transaction holding at least an S table lock):
//    see all committed versions plus the reader's own pending writes. Under
//    strict 2PL no *other* transaction's pending writes can exist while the
//    S lock is held.
//  * Snapshot reads at CSN c <= the manager's stable CSN: lock-free
//    time-travel, used by tests to validate the golden invariant
//    phi(sigma_{a,b}(Delta^V) + V_a) = phi(V_b) and by the Eq. 2 baseline,
//    which the paper notes is realizable only "if historical snapshots of
//    base relations are maintained" (Sec. 2) -- our MVCC maintains them.
//
// A per-table shared_mutex latch protects physical structure (the versions
// vector and indexes); it is unrelated to logical 2PL locks.

#ifndef ROLLVIEW_STORAGE_VERSIONED_TABLE_H_
#define ROLLVIEW_STORAGE_VERSIONED_TABLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/csn.h"
#include "common/status.h"
#include "schema/schema.h"
#include "schema/tuple.h"
#include "storage/ids.h"

namespace rollview {

class VersionedTable {
 public:
  struct Version {
    Tuple tuple;
    Csn begin_csn = kNullCsn;   // kNullCsn while the insert is uncommitted
    Csn end_csn = kMaxCsn;      // kMaxCsn while live
    TxnId begin_txn = kInvalidTxnId;
    TxnId end_txn = kInvalidTxnId;  // set while a delete is pending
    bool insert_aborted = false;    // insert rolled back; version is dead
  };

  VersionedTable(TableId id, std::string name, Schema schema,
                 std::vector<size_t> indexed_columns);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<size_t>& indexed_columns() const {
    return indexed_columns_;
  }

  // --- Write path (caller holds the appropriate logical locks) ---

  // Appends an uncommitted insert by `txn`. Returns the version slot.
  size_t AddPendingInsert(TxnId txn, Tuple tuple);

  // Marks up to `limit` (-1 = all) current-visible copies of `tuple` as
  // pending-deleted by `txn`, lowest slot first, and appends their slots to
  // `slots`. Returns the number marked. A table with indexed columns walks
  // only the leading index's slot list for the tuple's key; a table without
  // one scans every version.
  int64_t MarkPendingDeletes(TxnId txn, const Tuple& tuple, int64_t limit,
                             std::vector<size_t>* slots);

  // Commit stamping / rollback (called under the commit mutex).
  void CommitInsert(size_t slot, Csn csn);
  void CommitDelete(size_t slot, Csn csn);
  void AbortInsert(size_t slot);
  void AbortDelete(size_t slot);

  // --- Read path ---

  // Visitor scans/probes: invoke `fn` on every visible tuple while holding
  // the shared latch, without copying. The `const Tuple&` passed to `fn` is
  // valid ONLY for the duration of the callback -- callers that need the
  // tuple afterwards must copy it (version slots can move under concurrent
  // appends and GC compaction once the latch drops). `fn` must not re-enter
  // this table (the latch is held) and must not block. The optional `pred`
  // filters before `fn` sees the tuple.
  void ScanVisitCurrent(
      TxnId txn, const std::function<void(const Tuple&)>& fn,
      const std::function<bool(const Tuple&)>* pred = nullptr) const;
  void ScanVisitSnapshot(
      Csn csn, const std::function<void(const Tuple&)>& fn,
      const std::function<bool(const Tuple&)>* pred = nullptr) const;
  // Index-probe visitors; `col` must be one of indexed_columns().
  void ProbeVisitCurrent(TxnId txn, size_t col, const Value& key,
                         const std::function<void(const Tuple&)>& fn) const;
  void ProbeVisitSnapshot(Csn csn, size_t col, const Value& key,
                          const std::function<void(const Tuple&)>& fn) const;

  // Visits every committed, non-aborted version with its validity interval
  // [begin_csn, end_csn) -- end_csn is kMaxCsn for live versions and for
  // versions whose delete is still pending. The durable-checkpoint image
  // builder (ivm/checkpoint.cc) regenerates the table's full committed
  // history from these intervals. Same latch contract as the visitors
  // above: `fn` must not re-enter this table or block.
  void VisitVersions(
      const std::function<void(const Tuple&, Csn begin, Csn end)>& fn) const;

  // All tuples visible to `txn` right now (committed + own pending).
  std::vector<Tuple> CurrentScan(TxnId txn) const;
  // Visible tuples matching `pred`.
  std::vector<Tuple> CurrentScanWhere(
      TxnId txn, const std::function<bool(const Tuple&)>& pred) const;
  // Visible tuples whose indexed column `col` equals `key` (index probe;
  // `col` must be one of indexed_columns()).
  std::vector<Tuple> CurrentProbe(TxnId txn, size_t col,
                                  const Value& key) const;

  // Time-travel variants; `csn` must be <= the manager's stable CSN.
  std::vector<Tuple> SnapshotScan(Csn csn) const;
  std::vector<Tuple> SnapshotProbe(Csn csn, size_t col,
                                   const Value& key) const;

  // Number of currently committed-visible rows (approximate live size).
  size_t LiveSize() const;
  // Total versions retained (live + historical).
  size_t VersionCount() const;

  // Drops versions whose end_csn <= horizon (no snapshot reader needs them).
  // Index entries pointing at dropped versions are purged as well.
  // Compaction moves version slots, and an open transaction holds the slots
  // of its pending inserts and deletes until it commits or aborts; so while
  // any version is pending the pass leaves the table as it is.
  void GarbageCollect(Csn horizon);

 private:
  bool VisibleToTxn(const Version& v, TxnId txn) const;
  bool VisibleAt(const Version& v, Csn csn) const;

  template <typename Visible>
  void ScanVisitImpl(Visible visible,
                     const std::function<bool(const Tuple&)>* pred,
                     const std::function<void(const Tuple&)>& fn) const;
  template <typename Visible>
  void ProbeVisitImpl(Visible visible, size_t col, const Value& key,
                      const std::function<void(const Tuple&)>& fn) const;

  TableId id_;
  std::string name_;
  Schema schema_;
  std::vector<size_t> indexed_columns_;

  mutable std::shared_mutex latch_;
  std::vector<Version> versions_;
  // Pending inserts plus pending deletes not yet committed or aborted.
  size_t pending_versions_ = 0;
  // One hash index per indexed column: key value -> version slots, in
  // ascending slot order (inserts append, GC remaps in order). Entries are
  // added at insert time and filtered through visibility at probe time;
  // GarbageCollect purges dead entries.
  std::vector<std::unordered_map<Value, std::vector<size_t>, ValueHasher>>
      indexes_;
};

}  // namespace rollview

#endif  // ROLLVIEW_STORAGE_VERSIONED_TABLE_H_
