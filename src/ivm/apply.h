// Copyright 2026 The rollview Authors.
//
// Applier: the apply driver (paper Figs. 2, 3, 11). Completely independent
// of propagation apart from producer/consumer ordering: at any moment it can
// roll the materialized view forward to *any* point up to the view-delta
// high-water mark by selecting sigma_{mv_time, target}(view_delta) and
// merging the net effect into the stored view -- the paper's point-in-time
// incremental refresh.

#ifndef ROLLVIEW_IVM_APPLY_H_
#define ROLLVIEW_IVM_APPLY_H_

#include "capture/uow_table.h"
#include "common/result.h"
#include "ivm/view_manager.h"

namespace rollview {

struct ApplierOptions {
  // Drop view-delta rows at or below the new materialization time after a
  // successful roll (they can never be selected again). Tests that replay
  // history disable this.
  bool prune_view_delta = false;
};

class Applier {
 public:
  Applier(ViewManager* views, View* view,
          ApplierOptions options = ApplierOptions{})
      : views_(views), view_(view), options_(options) {}

  // Rolls the MV from its current materialization time to `target`.
  // Requires mv_time <= target <= high-water mark. Takes an X lock on the
  // view's resource (readers take S), so rolls serialize with readers.
  // Commits (consuming a CSN) only when the window holds view-delta rows;
  // an empty window is a metadata-only advance.
  Status RollTo(Csn target);

  // RollTo(high-water mark).
  Result<Csn> RollToLatest();

  // Point-in-time refresh by wall-clock time: resolves `t` to the largest
  // CSN committed at or before `t` via the unit-of-work table (Sec. 5),
  // then rolls there. Returns the CSN rolled to.
  Result<Csn> RollToWallTime(WallTime t);

  struct Stats {
    uint64_t rolls = 0;
    // Rolls over an empty view-delta window: metadata-only advances of the
    // materialization time that commit nothing (a subset of `rolls`).
    uint64_t empty_rolls = 0;
    uint64_t rows_selected = 0;  // view-delta rows in the applied windows
    uint64_t rows_pruned = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  ViewManager* views_;
  View* view_;
  ApplierOptions options_;
  Stats stats_;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_APPLY_H_
