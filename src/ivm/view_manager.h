// Copyright 2026 The rollview Authors.
//
// ViewManager: registers views against a Db + LogCapture pair, performs
// initial (full) materialization, and -- after a crash -- rebuilds every
// registered view from its latest durable checkpoint plus the WAL suffix
// (Recover), so maintenance resumes from the recovered cursors instead of
// recomputing the view from scratch.

#ifndef ROLLVIEW_IVM_VIEW_MANAGER_H_
#define ROLLVIEW_IVM_VIEW_MANAGER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "capture/log_capture.h"
#include "ivm/view.h"
#include "ra/executor.h"
#include "storage/db.h"

namespace rollview {

class ViewManager {
 public:
  // `capture` may be null only if every base table uses trigger capture.
  ViewManager(Db* db, LogCapture* capture) : db_(db), capture_(capture) {}

  Db* db() const { return db_; }
  LogCapture* capture() const { return capture_; }

  // Registers a view. The view starts unmaterialized; call Materialize.
  Result<View*> CreateView(const std::string& name, SpjViewDef def);

  View* Find(const std::string& name) const;

  // All registered views (stable pointers; views are never dropped).
  std::vector<View*> AllViews() const;

  // Fully computes the view in one transaction (S locks on all base tables)
  // and installs the result. Sets the materialization time, the propagation
  // start, and the view-delta high-water mark to the commit CSN, and writes
  // an initial durable checkpoint so the view is recoverable from this
  // moment on.
  Status Materialize(View* view);

  // --- Crash recovery ---

  struct RecoveryReport {
    size_t views_recovered = 0;    // restored from a checkpoint
    size_t views_unrecovered = 0;  // registered but not restorable (no
                                   // checkpoint in the log, or a definition
                                   // mismatch); caller re-Materializes
    size_t checkpoints_seen = 0;
    size_t checkpoints_corrupt = 0;  // undecodable or digest-failed
                                     // checkpoints, skipped in favor of an
                                     // earlier good one
    size_t cursor_records = 0;
    size_t delta_rows_restored = 0;  // checkpoint rows + replayed appends
    size_t rows_discarded = 0;  // committed rows of steps with no durable
                                // cursor (mid-flight strips, cancelled by
                                // omission)
  };

  // Rebuilds every *registered* view from `records` -- the same decoded
  // record list handed to Db::Recover. Call order after a crash:
  //
  //   1. Db::Recover(records)            base tables, catalog, WAL
  //   2. LogCapture::CatchUp()           base delta tables, UOW table
  //   3. re-register view defs by name   (SpjViewDef holds expression
  //      via CreateView                   trees; it is not serialized)
  //   4. ViewManager::Recover(records)
  //
  // For each view (matched by name; view ids restart per crash generation
  // and are remapped through the kCreateView records in log order), finds
  // the latest complete checkpoint, restores MV/view-delta/cursors from it,
  // replays the WAL suffix (committed kViewDeltaAppend rows of steps whose
  // kViewCursor advance is durable, cursor advances, applied marks),
  // recomputes the high-water mark as min_i t_comp[i], rolls the MV to the
  // last durable applied CSN, and seeds the view's cursor state so the next
  // propagator resumes idempotently. Finishes each recovered view with a
  // fresh checkpoint, which shadows any discarded mid-flight rows still
  // sitting in the re-emitted log (they would otherwise need this same
  // discard logic again after a second crash).
  //
  // A registered view with no usable checkpoint is left unmaterialized and
  // counted in the report; the caller decides whether to Materialize it.
  Status Recover(const std::vector<WalRecord>& records,
                 RecoveryReport* report = nullptr);

  // Single-view repair: rebuilds ONE live view from its latest digest-good
  // checkpoint in `records` plus the log suffix -- the scrubber's
  // self-healing primitive (ivm/scrub.h). Same restore machinery Recover
  // uses after a crash, applied while the rest of the engine keeps running;
  // the caller must hold the view's maintenance exclusion (X lock on
  // mv_lock_resource) and guarantee the propagation driver is between steps,
  // so live cursor/delta state equals the durable state being replayed.
  // Returns NotFound when the log holds no usable checkpoint for the view
  // (the caller escalates to a full Materialize). Clears the view's
  // quarantine state on success.
  Status RecoverView(View* view, const std::vector<WalRecord>& records,
                     RecoveryReport* report = nullptr);

  // Largest CSN whose base-delta rows are guaranteed published: capture's
  // high-water mark, or the engine's stable CSN when there is no capture
  // (all-trigger configurations publish delta rows at commit).
  Csn DeltaReadyCsn() const { return DeltaReadyFrontier()->value(); }
  // DeltaReadyCsn as a waitable frontier: its advances wake the propagate
  // drivers.
  CsnFrontier* DeltaReadyFrontier() const {
    return capture_ != nullptr ? capture_->frontier() : db_->stable_frontier();
  }

  // The one "propagate until" loop, behind every propagator's RunUntil and
  // the synchronous MaintenanceService::Drain: runs `step` until `hwm()`
  // reaches `target`. `step` performs one propagation step -- settling
  // pending work itself when it finds nothing new -- and reports whether
  // it advanced. An idle step lets capture publish the log up to `target`,
  // then sleeps until the delta-ready frontier moves past the value read
  // before the step, so delta published while the step ran is not missed.
  Status StepUntil(Csn target, const std::function<Csn()>& hwm,
                   const std::function<Status(bool*)>& step);

 private:
  Db* db_;
  LogCapture* capture_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<View>> views_;
  ViewId next_id_ = 1;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_VIEW_MANAGER_H_
