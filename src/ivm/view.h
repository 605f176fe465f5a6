// Copyright 2026 The rollview Authors.
//
// View: one registered materialized view and its maintenance state -- the
// in-memory equivalent of the paper's control tables (Sec. 5), which
// "identify the tables associated with each materialized view, including the
// view delta table, the underlying base tables, and their delta tables" and
// "record the current view materialization time and the view delta
// high-water mark".

#ifndef ROLLVIEW_IVM_VIEW_H_
#define ROLLVIEW_IVM_VIEW_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "capture/delta_table.h"
#include "common/csn_frontier.h"
#include "ivm/materialized_view.h"
#include "ivm/view_def.h"

namespace rollview {

using ViewId = uint32_t;

// Scrub health of one view. Healthy views serve reads normally; quarantined
// views have a detected content corruption and serve per the Db's
// QuarantineReadPolicy (fail-fast with a transient error, or knowingly
// stale) until the scrubber's repair re-verifies them.
enum class ViewHealth : uint8_t {
  kHealthy = 0,
  kQuarantined = 1,
};

// One remembered forward query (rolling deferred mode): delta interval
// (lo, hi] and execution time. Kept until fully compensated.
struct ForwardStrip {
  Csn lo = kNullCsn;
  Csn hi = kNullCsn;
  Csn exec = kNullCsn;
};

// Propagation-cursor control state: per-relation forward frontiers tfwd[i],
// compensation frontiers tcomp[i], the next propagation step sequence
// number, and -- in rolling deferred mode -- the per-relation query lists of
// not-yet-fully-compensated forward strips. The live propagator mirrors its
// cursors here after every advance, so checkpoints can snapshot them, a
// newly constructed propagator resumes where the previous one (or crash
// recovery) left off, and the Sec. 5 "control table" has an explicit
// in-memory analogue.
struct CursorState {
  bool valid = false;
  std::vector<Csn> tfwd;
  std::vector<Csn> tcomp;
  uint64_t next_step_seq = 1;
  std::vector<std::vector<ForwardStrip>> strips;  // empty in frontier mode
  // How many partition strips the writer was running (1 = the serial
  // driver). Stored so a restarted driver can tell whether the durable
  // per-partition cursor set matches its own partition count.
  uint32_t num_partitions = 1;
};

struct View {
  ViewId id = 0;
  std::string name;
  ResolvedView resolved;

  // The view delta: timestamped change rows produced by propagation. Not
  // time-ordered (the min-timestamp rule emits rows out of order).
  std::unique_ptr<DeltaTable> view_delta;

  // The stored view extent; its csn() is the view materialization time.
  std::unique_ptr<MaterializedView> mv;

  // View delta high-water mark: sigma_{mv.csn, hwm}(view_delta) is a
  // complete timed delta table (Def. 4.2). Advanced only by the propagation
  // process; monotone (Reset only on materialization and recovery). Its
  // advances wake the apply driver.
  CsnFrontier delta_hwm;

  // Where propagation starts (the initial materialization time).
  std::atomic<Csn> propagate_from{0};

  // Named lock-manager resource for reader/apply isolation on the MV.
  uint64_t mv_lock_resource = 0;

  mutable std::mutex cursor_mu;
  // One cursor chain per partition strip, keyed by partition index; the
  // serial driver lives at partition 0. Guarded by cursor_mu.
  std::map<uint32_t, CursorState> cursors_by_partition;

  // Cursor control state (see CursorState). Written by the propagation
  // drivers after every frontier advance and by ViewManager::Recover; read
  // by propagator constructors and the checkpointer. Partition strips run
  // concurrently, hence the lock even though each partition has one writer.
  void StoreCursors(CursorState state, uint32_t partition = 0) {
    std::lock_guard<std::mutex> lk(cursor_mu);
    CursorState& slot = cursors_by_partition[partition];
    slot = std::move(state);
    slot.valid = true;
  }
  CursorState LoadCursors(uint32_t partition = 0) const {
    std::lock_guard<std::mutex> lk(cursor_mu);
    auto it = cursors_by_partition.find(partition);
    return it == cursors_by_partition.end() ? CursorState{} : it->second;
  }
  std::map<uint32_t, CursorState> LoadAllCursors() const {
    std::lock_guard<std::mutex> lk(cursor_mu);
    return cursors_by_partition;
  }
  // Drops every partition's cursor chain (repartitioning from a settled
  // uniform frontier re-seeds them).
  void ClearCursors() {
    std::lock_guard<std::mutex> lk(cursor_mu);
    cursors_by_partition.clear();
  }

  // --- Scrub health ------------------------------------------------------
  //
  // The health flag is atomic so the read path (harness/mv_reader.cc) can
  // gate without taking a lock; the bucket/reason details ride under a
  // mutex because only the scrubber and diagnostics touch them.
  std::atomic<ViewHealth> scrub_health{ViewHealth::kHealthy};
  mutable std::mutex quarantine_mu;
  uint32_t quarantine_bucket = 0;     // guarded by quarantine_mu
  std::string quarantine_reason;      // guarded by quarantine_mu

  bool quarantined() const {
    return scrub_health.load(std::memory_order_acquire) ==
           ViewHealth::kQuarantined;
  }
  void Quarantine(uint32_t bucket, std::string reason) {
    {
      std::lock_guard<std::mutex> lk(quarantine_mu);
      quarantine_bucket = bucket;
      quarantine_reason = std::move(reason);
    }
    scrub_health.store(ViewHealth::kQuarantined, std::memory_order_release);
  }
  void ClearQuarantine() {
    scrub_health.store(ViewHealth::kHealthy, std::memory_order_release);
    std::lock_guard<std::mutex> lk(quarantine_mu);
    quarantine_bucket = 0;
    quarantine_reason.clear();
  }
  // (bucket, reason) of the active quarantine; meaningful only while
  // quarantined() holds.
  std::pair<uint32_t, std::string> quarantine_info() const {
    std::lock_guard<std::mutex> lk(quarantine_mu);
    return {quarantine_bucket, quarantine_reason};
  }

  Csn high_water_mark() const { return delta_hwm.value(); }
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_VIEW_H_
