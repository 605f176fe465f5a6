#include "storage/db.h"

#include <cassert>

#include "obs/freshness.h"
#include "storage/wal_codec.h"
#include "storage/wal_segment.h"

namespace rollview {

Db::Db(DbOptions options)
    : options_(options),
      lock_manager_(options.lock_options),
      wall_clock_([] { return std::chrono::system_clock::now(); }) {
  if (!options_.wal_dir.empty()) {
    // Fresh engine, generation 1. An existing log in the directory fails
    // the open (kept attached in its failed state, so commits surface the
    // error); recovery paths attach their own store at a later generation.
    DurableWalOptions wopts;
    wopts.dir = options_.wal_dir;
    wopts.segment_bytes = options_.wal_segment_bytes;
    wopts.group_commit = options_.wal_group_commit;
    if (wal_.OpenDurable(wopts, /*generation=*/1, /*require_empty=*/true)
            .ok()) {
      wal_.store()->Start();
    }
  }
}

Db::~Db() = default;

void Db::SetWallClock(std::function<WallTime()> clock) {
  wall_clock_ = std::move(clock);
}

Result<TableId> Db::CreateTable(const std::string& name, Schema schema,
                                TableOptions options) {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  if (by_name_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  for (size_t col : options.indexed_columns) {
    if (col >= schema.num_columns()) {
      return Status::InvalidArgument("indexed column out of range");
    }
  }
  TableId id = next_table_id_++;
  auto e = std::make_unique<TableEntry>();
  e->table = std::make_unique<VersionedTable>(id, name, schema,
                                              options.indexed_columns);
  e->delta = std::make_unique<DeltaTable>("delta_" + name, schema,
                                          /*ts_sorted=*/true);
  e->capture_mode = options.capture_mode;
  tables_.emplace(id, std::move(e));
  by_name_.emplace(name, id);
  // Catalog record for log replay. Appended under catalog_mu_, so creation
  // records appear in the log in TableId order.
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCreateTable;
  rec.table = id;
  rec.create = std::make_shared<CreateTablePayload>(CreateTablePayload{
      name, std::move(schema), options.capture_mode,
      options.indexed_columns});
  Lsn lsn = wal_.Append(std::move(rec));
  if (wal_.durable()) {
    // Force the catalog record to disk now: data records replayed against a
    // table whose creation record only existed in a later unsynced batch
    // would fail recovery loudly but needlessly.
    ROLLVIEW_RETURN_NOT_OK(wal_.SyncTo(lsn));
  }
  return id;
}

Result<TableId> Db::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return it->second;
}

Db::TableEntry* Db::entry(TableId id) const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

VersionedTable* Db::table(TableId id) const {
  TableEntry* e = entry(id);
  return e == nullptr ? nullptr : e->table.get();
}

DeltaTable* Db::delta(TableId id) const {
  TableEntry* e = entry(id);
  return e == nullptr ? nullptr : e->delta.get();
}

CaptureMode Db::capture_mode(TableId id) const {
  TableEntry* e = entry(id);
  return e == nullptr ? CaptureMode::kLog : e->capture_mode;
}

std::vector<TableId> Db::AllTableIds() const {
  std::lock_guard<std::mutex> lk(catalog_mu_);
  std::vector<TableId> out;
  out.reserve(tables_.size());
  for (const auto& [id, e] : tables_) out.push_back(id);
  return out;
}

std::unique_ptr<Txn> Db::Begin(TxnClass cls) {
  return std::make_unique<Txn>(next_txn_id_.fetch_add(1), cls);
}

uint64_t Db::RowLockKey(const TableEntry& e, const Tuple& tuple) const {
  const std::vector<size_t>& idx_cols = e.table->indexed_columns();
  if (!idx_cols.empty()) {
    // Key-level locking on the leading indexed column: transactions touching
    // different keys do not conflict at row granularity.
    return tuple[idx_cols[0]].Hash();
  }
  return HashTuple(tuple);
}

Status Db::AcquireRowLock(Txn* txn, TableId table, const TableEntry& e,
                          const Tuple& tuple) {
  if (options_.lock_escalation_threshold > 0) {
    if (txn->escalated_tables_.count(table) != 0) {
      return Status::OK();  // table-X already covers every row
    }
    size_t& count = txn->row_lock_counts_[table];
    if (count + 1 >= options_.lock_escalation_threshold) {
      ROLLVIEW_RETURN_NOT_OK(lock_manager_.Acquire(
          txn->id(), ResourceId::Table(table), LockMode::kX, txn->cls()));
      txn->escalated_tables_.insert(table);
      return Status::OK();
    }
    ++count;
  }
  return lock_manager_.Acquire(txn->id(),
                               ResourceId::Row(table, RowLockKey(e, tuple)),
                               LockMode::kX, txn->cls());
}

Status Db::CaptureOnWrite(Txn* txn, TableId table, TableEntry* e,
                          const Tuple& tuple, int64_t count) {
  if (e->capture_mode != CaptureMode::kTrigger) return Status::OK();
  // Trigger capture widens the update footprint: the transaction X-locks the
  // delta-table resource and carries the delta row to commit, where it is
  // stamped with the commit CSN.
  ROLLVIEW_RETURN_NOT_OK(lock_manager_.Acquire(
      txn->id(), ResourceId::Named(table), LockMode::kX, txn->cls()));
  txn->pending_delta_appends_.push_back(Txn::PendingDeltaAppend{
      e->delta.get(), DeltaRow(tuple, count, kNullCsn),
      /*stamp_with_commit_csn=*/true});
  return Status::OK();
}

Status Db::Insert(Txn* txn, TableId table, Tuple tuple) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  ROLLVIEW_RETURN_NOT_OK(e->table->schema().ValidateTuple(tuple));
  ROLLVIEW_RETURN_NOT_OK(lock_manager_.Acquire(
      txn->id(), ResourceId::Table(table), LockMode::kIX, txn->cls()));
  ROLLVIEW_RETURN_NOT_OK(AcquireRowLock(txn, table, *e, tuple));
  ROLLVIEW_RETURN_NOT_OK(CaptureOnWrite(txn, table, e, tuple, +1));

  ROLLVIEW_RETURN_NOT_OK(wal_.MaybeInjectWriteError());
  wal_.Append(WalRecord{WalRecord::Kind::kInsert, 0, txn->id(), table, tuple,
                        kNullCsn});
  size_t slot = e->table->AddPendingInsert(txn->id(), std::move(tuple));
  txn->write_ops_.push_back(Txn::WriteOp{e->table.get(), slot, false});
  return Status::OK();
}

Result<int64_t> Db::DeleteTuple(Txn* txn, TableId table, const Tuple& tuple,
                                int64_t limit) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  ROLLVIEW_RETURN_NOT_OK(lock_manager_.Acquire(
      txn->id(), ResourceId::Table(table), LockMode::kIX, txn->cls()));
  // Injected before any slot is marked so an abort fully undoes the txn.
  ROLLVIEW_RETURN_NOT_OK(wal_.MaybeInjectWriteError());

  std::vector<size_t> slots;
  int64_t n = e->table->MarkPendingDeletes(txn->id(), tuple, limit, &slots);
  // Every marked slot joins the undo list before anything below can fail,
  // so an abort unmarks all of them.
  for (size_t slot : slots) {
    txn->write_ops_.push_back(Txn::WriteOp{e->table.get(), slot, true});
  }
  for (int64_t i = 0; i < n; ++i) {
    // Row lock after the fact is safe here: IX on the table was held before
    // the marking, and conflicting writers serialize on the row key anyway.
    ROLLVIEW_RETURN_NOT_OK(AcquireRowLock(txn, table, *e, tuple));
    ROLLVIEW_RETURN_NOT_OK(CaptureOnWrite(txn, table, e, tuple, -1));
    wal_.Append(WalRecord{WalRecord::Kind::kDelete, 0, txn->id(), table, tuple,
                          kNullCsn});
  }
  return n;
}

Status Db::Update(Txn* txn, TableId table, const Tuple& old_tuple,
                  Tuple new_tuple) {
  ROLLVIEW_ASSIGN_OR_RETURN(int64_t n, DeleteTuple(txn, table, old_tuple, 1));
  if (n == 0) return Status::NotFound("update target not found");
  return Insert(txn, table, std::move(new_tuple));
}

Result<std::vector<Tuple>> Db::Scan(Txn* txn, TableId table) {
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  ROLLVIEW_RETURN_NOT_OK(LockTableShared(txn, table));
  return e->table->CurrentScan(txn->id());
}

Result<std::vector<Tuple>> Db::ScanWhere(Txn* txn, TableId table,
                                         const TuplePredicate& pred) {
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  ROLLVIEW_RETURN_NOT_OK(LockTableShared(txn, table));
  return e->table->CurrentScanWhere(txn->id(), pred);
}

Result<std::vector<Tuple>> Db::ReadByKey(Txn* txn, TableId table, size_t col,
                                         const Value& key) {
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  const std::vector<size_t>& idx = e->table->indexed_columns();
  if (std::find(idx.begin(), idx.end(), col) == idx.end()) {
    return Status::InvalidArgument("ReadByKey on a non-indexed column");
  }
  ROLLVIEW_RETURN_NOT_OK(lock_manager_.Acquire(
      txn->id(), ResourceId::Table(table), LockMode::kIS, txn->cls()));
  // Row-lock resources hash the leading indexed column; for other indexed
  // columns this still blocks same-key writers of that hash, which is
  // conservative but safe.
  ROLLVIEW_RETURN_NOT_OK(lock_manager_.Acquire(
      txn->id(), ResourceId::Row(table, key.Hash()), LockMode::kS,
      txn->cls()));
  return e->table->CurrentProbe(txn->id(), col, key);
}

Result<std::vector<Tuple>> Db::SnapshotScan(TableId table, Csn csn) const {
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  if (csn > stable_csn()) {
    return Status::OutOfRange("snapshot csn beyond stable csn");
  }
  return e->table->SnapshotScan(csn);
}

Status Db::LockTableShared(Txn* txn, TableId table) {
  return lock_manager_.Acquire(txn->id(), ResourceId::Table(table),
                               LockMode::kS, txn->cls());
}

Status Db::LockTableExclusive(Txn* txn, TableId table) {
  return lock_manager_.Acquire(txn->id(), ResourceId::Table(table),
                               LockMode::kX, txn->cls());
}

Status Db::LockDeltaShared(Txn* txn, TableId table) {
  TableEntry* e = entry(table);
  if (e == nullptr) return Status::NotFound("no such table");
  if (e->capture_mode != CaptureMode::kTrigger) return Status::OK();
  return lock_manager_.Acquire(txn->id(), ResourceId::Named(table),
                               LockMode::kS, txn->cls());
}

Status Db::LockNamedShared(Txn* txn, uint64_t resource) {
  return lock_manager_.Acquire(txn->id(), ResourceId::Named(resource),
                               LockMode::kS, txn->cls());
}

Status Db::LockNamedExclusive(Txn* txn, uint64_t resource) {
  return lock_manager_.Acquire(txn->id(), ResourceId::Named(resource),
                               LockMode::kX, txn->cls());
}

void Db::BufferDeltaAppend(Txn* txn, DeltaTable* delta, DeltaRow row,
                           uint32_t wal_view, uint64_t step_seq,
                           uint32_t partition) {
  txn->pending_delta_appends_.push_back(Txn::PendingDeltaAppend{
      delta, std::move(row), false, wal_view, step_seq, partition});
}

Status Db::Commit(Txn* txn) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  if (FaultInjector* fi = fault_injector()) {
    // Injected before any commit work: the transaction stays active and the
    // caller aborts it, exactly like a real deadlock-victim commit failure.
    ROLLVIEW_RETURN_NOT_OK(wal_.MaybeInjectWriteError());
    ROLLVIEW_RETURN_NOT_OK(fi->MaybeCommitAbort());
  }
  // Fail fast while the log device is unwritable (out of space, failed
  // open): the transaction stays active and the caller aborts/retries,
  // instead of every committer piling up behind a parked flusher.
  ROLLVIEW_RETURN_NOT_OK(wal_.CheckWritable());
  Lsn commit_lsn = 0;
  // A commit the maintenance pipeline must eventually reflect: any write to
  // a log-captured base table (published later by LogCapture::Poll), or a
  // trigger-captured delta append (detected below when it records the UOW).
  // Resolved before commit_mu_: capture_mode takes the catalog lock.
  bool delta_commit = false;
  for (const Txn::WriteOp& op : txn->write_ops_) {
    if (capture_mode(op.table->id()) == CaptureMode::kLog) {
      delta_commit = true;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lk(commit_mu_);
    Csn csn = next_csn_++;
    txn->commit_csn_ = csn;
    for (const Txn::WriteOp& op : txn->write_ops_) {
      if (op.is_delete) {
        op.table->CommitDelete(op.slot, csn);
      } else {
        op.table->CommitInsert(op.slot, csn);
      }
    }
    WallTime now = wall_clock_();
    bool recorded_uow = false;
    for (Txn::PendingDeltaAppend& p : txn->pending_delta_appends_) {
      if (p.stamp_with_commit_csn) {
        p.row.ts = csn;
        // Trigger capture maintains the UOW table itself (the paper's
        // hypothetical commit trigger, Sec. 5).
        if (!recorded_uow) {
          uow_.Record(txn->id(), csn, now);
          recorded_uow = true;
          delta_commit = true;
        }
      }
      if (p.wal_view != 0) {
        // Durable view delta: the row (with its final timestamp) goes to
        // the log ahead of the commit record, so recovery sees the append
        // iff it also sees the commit that made it visible.
        WalRecord rec;
        rec.kind = WalRecord::Kind::kViewDeltaAppend;
        rec.txn = txn->id();
        rec.view = p.wal_view;
        rec.blob = std::make_shared<std::string>(
            EncodeViewDeltaBlob(p.row, p.step_seq, p.partition));
        wal_.Append(std::move(rec));
      }
      p.delta->Append(std::move(p.row));
    }
    commit_lsn = wal_.Append(WalRecord{WalRecord::Kind::kCommit, 0, txn->id(),
                                       kInvalidTableId, {}, csn, now});
    stable_.Publish(csn);
  }
  txn->state_ = TxnState::kCommitted;
  lock_manager_.ReleaseAll(txn->id());
  // Wake capture only now: the wake syscall stays out of commit_mu_, and
  // the maintenance work it starts finds this transaction's locks gone.
  stable_.Notify();
  if (delta_commit) {
    if (obs::FreshnessTracker* ft = freshness_tracker()) {
      // Commit ack: the transaction is committed and its locks released.
      // The group-commit fsync below is durability, stamped by the flusher.
      // Only delta-producing (UOW) commits are stamped: they are what the
      // views must reflect. Maintenance's own appends and read-only
      // commits consume CSNs but carry no freshness obligation.
      ft->OnCommit(txn->commit_csn_);
    }
  }
  if (wal_.durable()) {
    // Real group-commit log force, outside commit_mu_ and after lock
    // release: concurrent committers block together on the flusher's next
    // fsync, so their waits overlap.
    // A sync failure here means the store crashed or stopped -- the commit
    // is applied in memory but not durable, exactly a crash's in-flight
    // tail, and the caller must treat the engine as down.
    ROLLVIEW_RETURN_NOT_OK(wal_.SyncTo(commit_lsn));
  }
  return Status::OK();
}

Status Db::Abort(Txn* txn) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("txn not active");
  }
  // Undo in reverse order; pending delta appends are simply dropped.
  for (auto it = txn->write_ops_.rbegin(); it != txn->write_ops_.rend();
       ++it) {
    if (it->is_delete) {
      it->table->AbortDelete(it->slot);
    } else {
      it->table->AbortInsert(it->slot);
    }
  }
  txn->write_ops_.clear();
  txn->pending_delta_appends_.clear();
  wal_.Append(WalRecord{WalRecord::Kind::kAbort, 0, txn->id(),
                        kInvalidTableId, {}, kNullCsn});
  txn->state_ = TxnState::kAborted;
  lock_manager_.ReleaseAll(txn->id());
  return Status::OK();
}

Result<std::unique_ptr<Db>> Db::Recover(const std::vector<WalRecord>& records,
                                        DbOptions options) {
  // Replay always runs against the in-memory log: the replayed history is
  // re-emitted with fresh LSNs that diverge from the on-disk ones, so a
  // durable backend must be re-attached at a new generation *after* replay
  // (harness/crash_harness.h RecoverFromWalDir does this, then publishes
  // the new generation's checkpoint as the commit point of recovery).
  options.wal_dir.clear();
  auto db = std::make_unique<Db>(options);
  std::unordered_map<TxnId, std::vector<const WalRecord*>> pending;
  Csn max_csn = kNullCsn;
  TxnId max_txn = kInvalidTxnId;

  for (const WalRecord& rec : records) {
    if (rec.txn > max_txn) max_txn = rec.txn;
    switch (rec.kind) {
      case WalRecord::Kind::kCreateTable: {
        if (rec.create == nullptr) {
          return Status::Internal("kCreateTable record without payload");
        }
        TableOptions topts;
        topts.capture_mode = rec.create->capture_mode;
        topts.indexed_columns = rec.create->indexed_columns;
        ROLLVIEW_ASSIGN_OR_RETURN(
            TableId id,
            db->CreateTable(rec.create->name, rec.create->schema, topts));
        if (id != rec.table) {
          // Creation records appear in the log in TableId order (appended
          // under the catalog mutex), so replay must reproduce the ids.
          return Status::Internal("table id mismatch during replay");
        }
        break;  // CreateTable re-emitted its own catalog record
      }
      case WalRecord::Kind::kInsert:
      case WalRecord::Kind::kDelete:
      case WalRecord::Kind::kViewDeltaAppend:
        // View-delta appends gate on the commit record like data ops; the
        // ivm layer (ViewManager::Recover) consumes them -- here they are
        // only re-emitted so the new engine's log stays self-contained.
        pending[rec.txn].push_back(&rec);
        break;
      case WalRecord::Kind::kCreateView:
      case WalRecord::Kind::kViewCursor:
      case WalRecord::Kind::kViewApplied:
      case WalRecord::Kind::kViewCheckpoint:
        // Non-transactional view records: passed through verbatim for
        // ViewManager::Recover and for the next crash.
        db->wal_.Append(rec);
        break;
      case WalRecord::Kind::kAbort:
        pending.erase(rec.txn);
        db->wal_.Append(rec);
        break;
      case WalRecord::Kind::kCommit: {
        auto it = pending.find(rec.txn);
        if (it != pending.end()) {
          bool touched_log_mode = false;
          bool trigger_rows = false;
          for (const WalRecord* op : it->second) {
            if (op->kind == WalRecord::Kind::kViewDeltaAppend) {
              // Committed view-delta rows re-enter the log only; the view
              // layer rebuilds the in-memory delta tables from them.
              db->wal_.Append(*op);
              continue;
            }
            TableEntry* e = db->entry(op->table);
            if (e == nullptr) {
              return Status::Internal("replayed op on unknown table");
            }
            if (op->kind == WalRecord::Kind::kInsert) {
              size_t slot = e->table->AddPendingInsert(rec.txn, op->tuple);
              e->table->CommitInsert(slot, rec.commit_csn);
            } else {
              std::vector<size_t> slots;
              int64_t n = e->table->MarkPendingDeletes(rec.txn, op->tuple,
                                                       /*limit=*/1, &slots);
              if (n != 1) {
                return Status::Internal("replayed delete found no target");
              }
              e->table->CommitDelete(slots[0], rec.commit_csn);
            }
            if (e->capture_mode == CaptureMode::kTrigger) {
              e->delta->Append(DeltaRow(
                  op->tuple,
                  op->kind == WalRecord::Kind::kInsert ? +1 : -1,
                  rec.commit_csn));
              trigger_rows = true;
            } else {
              touched_log_mode = true;
            }
            db->wal_.Append(*op);
          }
          // Trigger-only transactions record their UOW entry here, as on
          // the original commit path; mixed and log-mode transactions are
          // recorded by capture when it re-reads the emitted log (Record
          // is idempotent either way).
          if (trigger_rows && !touched_log_mode) {
            db->uow_.Record(rec.txn, rec.commit_csn, rec.commit_time);
          }
          pending.erase(it);
        }
        db->wal_.Append(rec);
        if (rec.commit_csn > max_csn) max_csn = rec.commit_csn;
        break;
      }
    }
  }
  // In-flight tails in `pending` are dropped: they never committed.
  {
    std::lock_guard<std::mutex> lk(db->commit_mu_);
    db->next_csn_ = max_csn + 1;
  }
  db->stable_.Reset(max_csn);
  db->next_txn_id_.store(max_txn + 1);
  return db;
}

Db::SnapshotHandle& Db::SnapshotHandle::operator=(
    SnapshotHandle&& other) noexcept {
  if (this != &other) {
    Release();
    db_ = other.db_;
    csn_ = other.csn_;
    other.db_ = nullptr;
    other.csn_ = kNullCsn;
  }
  return *this;
}

void Db::SnapshotHandle::Release() {
  if (db_ == nullptr) return;
  std::lock_guard<std::mutex> lk(db_->pins_mu_);
  auto it = db_->pinned_snapshots_.find(csn_);
  if (it != db_->pinned_snapshots_.end()) db_->pinned_snapshots_.erase(it);
  db_ = nullptr;
}

Db::SnapshotHandle Db::PinSnapshot() {
  Csn csn = stable_csn();
  std::lock_guard<std::mutex> lk(pins_mu_);
  pinned_snapshots_.insert(csn);
  return SnapshotHandle(this, csn);
}

Csn Db::OldestPinnedSnapshot() const {
  std::lock_guard<std::mutex> lk(pins_mu_);
  return pinned_snapshots_.empty() ? kMaxCsn : *pinned_snapshots_.begin();
}

void Db::GarbageCollect(Csn horizon) {
  Csn oldest_pin = OldestPinnedSnapshot();
  if (oldest_pin != kMaxCsn && horizon > oldest_pin) {
    // A snapshot at csn s needs every version with end_csn > s; collecting
    // at horizon h drops versions with end_csn <= h, so h must stay <= s.
    horizon = oldest_pin;
  }
  std::lock_guard<std::mutex> lk(catalog_mu_);
  for (auto& [id, e] : tables_) {
    e->table->GarbageCollect(horizon);
  }
}

}  // namespace rollview
