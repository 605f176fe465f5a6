// Copyright 2026 The rollview Authors.
//
// DeltaTable: the materialized change stream for one base table (Delta^R in
// the paper) or for a view (the view delta). Rows carry the base schema plus
// the implicit (count, timestamp) attributes of DeltaRow.
//
// Two flavors, selected at construction:
//  * ts_sorted = true  -- base-table deltas. Rows are appended in commit
//    order (the capture process and the trigger-mode commit path both append
//    under the commit mutex), so sigma_{a,b} range scans are binary searches.
//  * ts_sorted = false -- view deltas. The min-timestamp rule (Sec. 2) means
//    propagation inserts rows whose timestamps are *older* than previously
//    inserted ones, so the view delta is not time-ordered; scans filter.
//
// Thread safety: a shared_mutex guards the row vector. In log-capture mode
// the capture thread is the only appender for base deltas and propagation
// transactions are the only appenders for view deltas; readers take the
// shared latch. Logical 2PL locking of delta tables (trigger mode only) is
// the Db layer's responsibility.

#ifndef ROLLVIEW_CAPTURE_DELTA_TABLE_H_
#define ROLLVIEW_CAPTURE_DELTA_TABLE_H_

#include <atomic>
#include <deque>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/csn.h"
#include "schema/schema.h"
#include "schema/tuple.h"
#include "storage/ids.h"

namespace rollview {

// Hash-partition selector over delta rows: a row belongs to partition
// hash(tuple[column]) % count. Partitioned propagation (ivm layer) gives
// each concurrent strip one filter so disjoint strips read disjoint row
// sets of the same delta table. count <= 1 matches everything (the
// unpartitioned single-driver case).
//
// The hash is Value::Hash, which is deterministic for a build of the
// engine; per-partition cursors are only durable relative to the same
// binary, which is the crash-recovery contract everywhere else too.
struct DeltaPartitionFilter {
  size_t column = 0;   // column of the row's tuple that carries the join key
  uint32_t count = 1;  // total partitions
  uint32_t index = 0;  // this strip's partition
  bool Matches(const DeltaRow& r) const {
    return count <= 1 ||
           static_cast<uint32_t>(r.tuple[column].Hash() % count) == index;
  }
};

class DeltaTable {
 public:
  DeltaTable(std::string name, Schema schema, bool ts_sorted)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        ts_sorted_(ts_sorted) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  bool ts_sorted() const { return ts_sorted_; }

  // Appends one row. In ts_sorted mode the row's ts must be >= max_ts().
  void Append(DeltaRow row);
  void AppendBatch(std::vector<DeltaRow> rows);

  // sigma_{lo,hi}: rows with lo < ts <= hi.
  DeltaRows Scan(const CsnRange& range) const;
  DeltaRows ScanAll() const;

  // RAII pin that defers pruning: while any Pin on a table is live, Prune
  // is a no-op (retention retries on its next cycle). Combined with deque
  // row storage -- appends never move existing rows -- this makes borrowed
  // row pointers stable for the pin's lifetime.
  class Pin {
   public:
    Pin() = default;
    explicit Pin(const DeltaTable* t) : t_(t) {
      t_->pins_.fetch_add(1, std::memory_order_acq_rel);
    }
    Pin(Pin&& o) noexcept : t_(o.t_) { o.t_ = nullptr; }
    Pin& operator=(Pin&& o) noexcept {
      Release();
      t_ = o.t_;
      o.t_ = nullptr;
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

   private:
    void Release() {
      if (t_ != nullptr) t_->pins_.fetch_sub(1, std::memory_order_acq_rel);
      t_ = nullptr;
    }
    const DeltaTable* t_ = nullptr;
  };

  // Zero-copy sigma_{lo,hi}: pointers into the row store, valid while *pin
  // is held. The pin is acquired before the rows are collected, so a
  // concurrent Prune either ran first (the refs see the pruned store) or
  // observes the pin and defers.
  DeltaRowRefs ScanRefs(const CsnRange& range, Pin* pin) const;
  // Partition-restricted variant: only rows `filter` matches. A null filter
  // (or count <= 1) is the unfiltered scan.
  DeltaRowRefs ScanRefs(const CsnRange& range,
                        const DeltaPartitionFilter* filter, Pin* pin) const;
  // Number of rows a Scan(range) would return, without materializing.
  size_t CountInRange(const CsnRange& range) const;
  size_t CountInRange(const CsnRange& range,
                      const DeltaPartitionFilter* filter) const;

  // Adaptive-interval helper (ts_sorted only): the smallest ts T <= cap such
  // that (from, T] contains at least `rows` rows -- i.e. the end of a
  // propagation interval sized to roughly `rows` delta rows. Returns `cap`
  // when fewer than `rows` rows exist in (from, cap]. The filtered variant
  // counts only rows the partition filter matches, so each strip's interval
  // is sized to *its* work rather than the whole table's.
  Csn TsAfterRows(Csn from, size_t rows, Csn cap) const;
  Csn TsAfterRows(Csn from, size_t rows, Csn cap,
                  const DeltaPartitionFilter* filter) const;

  size_t size() const;
  Csn max_ts() const;
  // Drops rows with ts <= up_to (e.g. base-delta pruning below the view's
  // materialization time, or view-delta pruning below the applied time).
  // Returns the number of rows dropped. A no-op (returns 0) while any Pin
  // is live, so borrowed ScanRefs rows can never dangle.
  size_t Prune(Csn up_to);

  // Drops ALL rows and resets max_ts, returning the number dropped. Used by
  // view repair (ViewManager::RecoverView on a live view) before reloading
  // the delta from a checkpoint + log suffix. The caller must guarantee
  // exclusivity -- no concurrent appenders, no live Pins (unlike Prune,
  // Clear does not defer; borrowed ScanRefs rows would dangle).
  size_t Clear();

 private:
  // Index of the first row with ts > bound (requires ts_sorted_, latch held).
  size_t LowerBound(Csn bound) const;

  std::string name_;
  Schema schema_;
  bool ts_sorted_;

  mutable std::shared_mutex latch_;
  // Deque, not vector: growth must not move rows out from under ScanRefs
  // borrowers (deque push_back never invalidates references to elements).
  std::deque<DeltaRow> rows_;
  mutable std::atomic<int> pins_{0};
  Csn max_ts_ = kNullCsn;
};

}  // namespace rollview

#endif  // ROLLVIEW_CAPTURE_DELTA_TABLE_H_
