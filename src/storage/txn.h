// Copyright 2026 The rollview Authors.
//
// Txn: a transaction handle. Created by Db::Begin and finished by
// Db::Commit or Db::Abort. A Txn is used by one thread at a time.

#ifndef ROLLVIEW_STORAGE_TXN_H_
#define ROLLVIEW_STORAGE_TXN_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/csn.h"
#include "schema/tuple.h"
#include "storage/ids.h"

namespace rollview {

class VersionedTable;
class DeltaTable;

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

class Txn {
 public:
  explicit Txn(TxnId id, TxnClass cls = TxnClass::kOltp)
      : id_(id), cls_(cls) {}

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  TxnId id() const { return id_; }
  // Contention class (Sec. 3.3): the Db layer threads it into every lock
  // acquisition so the lock manager can account waits per class and prefer
  // maintenance transactions as deadlock victims.
  TxnClass cls() const { return cls_; }
  TxnState state() const { return state_; }
  // Commit CSN; kNullCsn until committed.
  Csn commit_csn() const { return commit_csn_; }

 private:
  friend class Db;

  struct WriteOp {
    VersionedTable* table = nullptr;
    size_t slot = 0;
    bool is_delete = false;
  };

  // A delta-table append buffered until commit. Trigger-capture rows are
  // stamped with the commit CSN at commit time; view-delta rows produced by
  // propagation queries keep their precomputed (min-rule) timestamps.
  struct PendingDeltaAppend {
    DeltaTable* delta = nullptr;
    DeltaRow row;
    bool stamp_with_commit_csn = false;
    // View-delta rows additionally log a kViewDeltaAppend WAL record at
    // commit so crash recovery can rebuild the timed view delta. wal_view
    // is the owning view's id (0 = not a view row, nothing logged);
    // step_seq tags the propagation step that produced the row, which is
    // how recovery discards rows of a step whose cursor advance never made
    // it to the log (the durable analogue of StepUndoLog).
    uint32_t wal_view = 0;
    uint64_t step_seq = 0;
    // Partition of the producing strip (0 = unpartitioned); logged with the
    // row so recovery attributes it to the right per-partition cursor chain.
    uint32_t partition = 0;
  };

  TxnId id_;
  TxnClass cls_ = TxnClass::kOltp;
  TxnState state_ = TxnState::kActive;
  Csn commit_csn_ = kNullCsn;
  std::vector<WriteOp> write_ops_;
  std::vector<PendingDeltaAppend> pending_delta_appends_;
  // Lock-escalation bookkeeping (see DbOptions::lock_escalation_threshold).
  std::unordered_map<TableId, size_t> row_lock_counts_;
  std::unordered_set<TableId> escalated_tables_;
};

}  // namespace rollview

#endif  // ROLLVIEW_STORAGE_TXN_H_
