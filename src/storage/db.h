// Copyright 2026 The rollview Authors.
//
// Db: the embeddable storage engine the view-maintenance algorithms run
// against -- the stand-in for the DB2 engine of the paper's prototype
// (Sec. 5). It coordinates:
//
//   * versioned heap tables (MVCC) with per-table hash indexes
//   * strict 2PL via the LockManager (serializable; commit order == CSN
//     order == serialization order)
//   * a write-ahead log consumed by the log-capture process
//   * per-base-table delta tables and the unit-of-work table
//
// Capture mode per table (paper Sec. 5 discusses both):
//   * kLog (default; the DPropR approach): the WAL is the only delta source.
//     Update transactions never touch the delta table, so propagation reads
//     of Delta^R do not conflict with updaters. Delta rows become visible
//     when LogCapture processes the commit record.
//   * kTrigger: the update transaction itself appends the delta rows at
//     commit, after taking an X lock on the delta-table resource -- the
//     widened "update footprint" the paper warns about. Propagation queries
//     reading Delta^R in this mode take an S lock on the same resource.
//     (Timestamps remain correct because stamping still happens at commit;
//     the paper notes a naive trigger-at-update-time cannot know them.)

#ifndef ROLLVIEW_STORAGE_DB_H_
#define ROLLVIEW_STORAGE_DB_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/delta_table.h"
#include "capture/uow_table.h"
#include "common/csn.h"
#include "common/csn_frontier.h"
#include "common/result.h"
#include "common/status.h"
#include "schema/schema.h"
#include "schema/tuple.h"
#include "storage/ids.h"
#include "storage/lock_manager.h"
#include "storage/txn.h"
#include "storage/versioned_table.h"
#include "storage/wal.h"

namespace rollview {

struct TableOptions {
  CaptureMode capture_mode = CaptureMode::kLog;
  // Columns to maintain hash indexes on (propagation queries probe these).
  // The first one also keys row locks and the DeleteTuple probe.
  std::vector<size_t> indexed_columns;
};

// What a view read does while the scrubber has the view quarantined
// (ivm/scrub.h detected content corruption and repair has not yet
// re-verified it).
enum class QuarantineReadPolicy : uint8_t {
  // Fail with a transient Busy: readers retry and succeed once repair
  // clears the quarantine. The default -- never serve known-bad data.
  kFailFast = 0,
  // Serve the (possibly damaged) contents anyway: availability over
  // integrity, for deployments where a stale-or-damaged answer beats an
  // error.
  kServeStale = 1,
};

struct DbOptions {
  LockManager::Options lock_options;
  // When > 0, a transaction holding this many row locks on one table
  // escalates to a table-level X lock (subsequent row locks on that table
  // become no-ops). Classic contention/overhead trade: fewer lock-manager
  // entries, coarser conflicts. 0 disables escalation.
  size_t lock_escalation_threshold = 0;
  // When non-empty, the WAL is file-backed: a segmented on-disk log in this
  // directory, written through a group-commit flusher; Commit blocks until
  // its commit record's batch is fsynced (storage/wal_segment.h). The
  // directory must not already hold a log (recover one with
  // harness/crash_harness.h RecoverFromWalDir instead). Empty (the
  // default): the log is in-memory only, as before.
  std::string wal_dir;
  // Segment rotation threshold for the file-backed WAL.
  size_t wal_segment_bytes = 1u << 20;
  // False caps every flusher batch at one record -- one fsync per commit
  // (the "single-sync" baseline of EXPERIMENTS.md E16).
  bool wal_group_commit = true;
  // Read behavior against quarantined views (see enum above).
  QuarantineReadPolicy quarantine_read_policy = QuarantineReadPolicy::kFailFast;
};

using TuplePredicate = std::function<bool(const Tuple&)>;

namespace obs {
class FreshnessTracker;
}  // namespace obs

class Db {
 public:
  Db() : Db(DbOptions{}) {}
  explicit Db(DbOptions options);
  ~Db();

  // Rebuilds an engine from a write-ahead log (e.g. one read back with
  // ReadWalFile): replays table creations, then every *committed*
  // transaction with its original CSN. Transactions with no commit record
  // -- a crash's in-flight tail -- are discarded. The replayed history is
  // re-emitted into the new engine's WAL so a fresh LogCapture rebuilds
  // the delta tables and unit-of-work table; trigger-mode delta rows are
  // regenerated directly, as on the original commit path. View deltas and
  // materialized views are derived data and are rebuilt by re-registering
  // the views and propagating.
  static Result<std::unique_ptr<Db>> Recover(
      const std::vector<WalRecord>& records,
      DbOptions options = DbOptions{});

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // --- Catalog ---

  Result<TableId> CreateTable(const std::string& name, Schema schema,
                              TableOptions options = TableOptions{});
  Result<TableId> FindTable(const std::string& name) const;
  VersionedTable* table(TableId id) const;
  DeltaTable* delta(TableId id) const;  // Delta^R for base table `id`
  CaptureMode capture_mode(TableId id) const;
  std::vector<TableId> AllTableIds() const;

  // --- Transactions ---

  // `cls` tags the transaction's contention class: every lock acquisition
  // it makes is accounted per class, and maintenance-class transactions are
  // the preferred deadlock victims (the IVM drivers retry them under the
  // supervisor; see lock_manager.h).
  std::unique_ptr<Txn> Begin(TxnClass cls = TxnClass::kOltp);
  // Assigns the commit CSN, stamps versions and buffered delta rows, writes
  // the WAL commit record, publishes the stable CSN, releases locks.
  Status Commit(Txn* txn);
  Status Abort(Txn* txn);

  // --- Data operations (acquire their own IX/X locks) ---

  Status Insert(Txn* txn, TableId table, Tuple tuple);
  // Deletes up to `limit` (-1 = all) visible copies equal to `tuple`,
  // lowest version slot first; returns the number deleted. The one delete
  // entry point (Update and log replay go through the same marking). On a
  // table with indexed columns it probes the leading index for the tuple's
  // key instead of scanning the version heap.
  Result<int64_t> DeleteTuple(Txn* txn, TableId table, const Tuple& tuple,
                              int64_t limit = 1);
  // The paper models an update as a deletion plus an insertion (Sec. 2).
  Status Update(Txn* txn, TableId table, const Tuple& old_tuple,
                Tuple new_tuple);

  // --- Reads ---

  // Current-state reads; take an S (scan) or IS+row-compatible (probe) lock.
  Result<std::vector<Tuple>> Scan(Txn* txn, TableId table);
  Result<std::vector<Tuple>> ScanWhere(Txn* txn, TableId table,
                                       const TuplePredicate& pred);
  // Index point read: visible rows whose indexed column `col` equals `key`.
  // Takes IS on the table plus S on the key's row-lock resource, so it runs
  // concurrently with writers of *other* keys (a full Scan's table-S lock
  // would not). `col` must be one of the table's indexed columns; key-level
  // serializability additionally requires `col` to be the leading indexed
  // column (the one row locks hash), which is the common case.
  Result<std::vector<Tuple>> ReadByKey(Txn* txn, TableId table, size_t col,
                                       const Value& key);
  // Lock-free time travel; `csn` must be <= stable_csn().
  Result<std::vector<Tuple>> SnapshotScan(TableId table, Csn csn) const;

  // --- Locking helpers for the IVM layer ---

  // Table-level S lock for the duration of the txn (propagation queries see
  // a stable current state of the base tables they read).
  Status LockTableShared(Txn* txn, TableId table);
  Status LockTableExclusive(Txn* txn, TableId table);
  // Lock on the delta-table resource (trigger mode only; no-op in log mode).
  Status LockDeltaShared(Txn* txn, TableId table);
  // Lock on an arbitrary named resource (e.g. the materialized view).
  Status LockNamedShared(Txn* txn, uint64_t resource);
  Status LockNamedExclusive(Txn* txn, uint64_t resource);

  // Buffers a view-delta append carrying a precomputed timestamp; applied
  // atomically at commit. Used by ivm::Execute. When `wal_view` is nonzero
  // the commit path additionally logs a kViewDeltaAppend record (tagged
  // with the view id and the propagation step sequence number) immediately
  // before the commit record, making the timed view delta recoverable.
  void BufferDeltaAppend(Txn* txn, DeltaTable* delta, DeltaRow row,
                         uint32_t wal_view = 0, uint64_t step_seq = 0,
                         uint32_t partition = 0);

  // --- Infrastructure access ---

  Wal* wal() { return &wal_; }
  LockManager* lock_manager() { return &lock_manager_; }
  UowTable* uow() { return &uow_; }
  const DbOptions& options() const { return options_; }

  // Deterministic fault injection (common/fault_injector.h): injected
  // commit aborts here, injected Busy in the lock manager, injected WAL
  // write errors on the append sites, capture-lag spikes in LogCapture
  // (which reads the injector through fault_injector()). Install before
  // concurrent use; pass nullptr to detach. The injector is not owned.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
    lock_manager_.SetFaultInjector(injector);
    wal_.SetFaultInjector(injector);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  // Largest CSN all of whose effects are stamped and snapshot-readable.
  Csn stable_csn() const { return stable_.value(); }
  // The stable CSN as a waitable frontier: every commit advances it (after
  // its commit record is in the log), which is what wakes log capture.
  CsnFrontier* stable_frontier() { return &stable_; }

  // Wall-clock time the commit path records into the UOW table. Benchmarks
  // leave the default (system_clock::now).
  void SetWallClock(std::function<WallTime()> clock);

  // Freshness pipeline (obs/freshness.h): when attached, Commit stamps the
  // commit-ack time of each CSN and a durable WAL forwards its group-commit
  // fsync frontier. The tracker must outlive the Db (or be detached with
  // nullptr first).
  void SetFreshnessTracker(obs::FreshnessTracker* tracker) {
    freshness_.store(tracker, std::memory_order_release);
    wal_.SetFreshnessTracker(tracker);
  }
  obs::FreshnessTracker* freshness_tracker() const {
    return freshness_.load(std::memory_order_acquire);
  }

  // --- Snapshot pinning ---
  //
  // A pinned snapshot guarantees SnapshotScan(table, pin.csn()) keeps
  // working regardless of concurrent GarbageCollect calls: GC horizons are
  // clamped below the oldest pin. RAII -- dropping the handle unpins.
  class SnapshotHandle {
   public:
    SnapshotHandle() = default;
    SnapshotHandle(SnapshotHandle&& other) noexcept { *this = std::move(other); }
    SnapshotHandle& operator=(SnapshotHandle&& other) noexcept;
    ~SnapshotHandle() { Release(); }

    SnapshotHandle(const SnapshotHandle&) = delete;
    SnapshotHandle& operator=(const SnapshotHandle&) = delete;

    Csn csn() const { return csn_; }
    bool valid() const { return db_ != nullptr; }
    void Release();

   private:
    friend class Db;
    SnapshotHandle(Db* db, Csn csn) : db_(db), csn_(csn) {}
    Db* db_ = nullptr;
    Csn csn_ = kNullCsn;
  };

  // Pins the current stable CSN.
  SnapshotHandle PinSnapshot();
  // Oldest pinned snapshot CSN; kMaxCsn when nothing is pinned.
  Csn OldestPinnedSnapshot() const;

  // Drops table versions no snapshot reader at or after `horizon` needs.
  // The horizon is clamped below the oldest pinned snapshot.
  void GarbageCollect(Csn horizon);

 private:
  struct TableEntry {
    std::unique_ptr<VersionedTable> table;
    std::unique_ptr<DeltaTable> delta;
    CaptureMode capture_mode = CaptureMode::kLog;
  };

  TableEntry* entry(TableId id) const;
  // Row-lock key for a tuple: hash of the first indexed column if any
  // (key-level locking), else the whole tuple.
  uint64_t RowLockKey(const TableEntry& e, const Tuple& tuple) const;
  Status AcquireRowLock(Txn* txn, TableId table, const TableEntry& e,
                        const Tuple& tuple);
  // In trigger mode, buffers the delta row and locks the delta resource.
  Status CaptureOnWrite(Txn* txn, TableId table, TableEntry* e,
                        const Tuple& tuple, int64_t count);

  DbOptions options_;
  LockManager lock_manager_;
  Wal wal_;
  UowTable uow_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<obs::FreshnessTracker*> freshness_{nullptr};

  mutable std::mutex catalog_mu_;
  std::unordered_map<std::string, TableId> by_name_;
  std::unordered_map<TableId, std::unique_ptr<TableEntry>> tables_;
  TableId next_table_id_ = 1;

  std::atomic<TxnId> next_txn_id_{1};
  std::mutex commit_mu_;
  Csn next_csn_ = 1;  // guarded by commit_mu_
  CsnFrontier stable_;

  std::function<WallTime()> wall_clock_;

  mutable std::mutex pins_mu_;
  std::multiset<Csn> pinned_snapshots_;
};

}  // namespace rollview

#endif  // ROLLVIEW_STORAGE_DB_H_
