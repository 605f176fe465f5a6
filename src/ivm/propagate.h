// Copyright 2026 The rollview Authors.
//
// Propagator: the continuous asynchronous propagation process of Figure 5.
// Each Step() chooses an interval delta and runs
// ComputeDelta(V, [t_cur,...,t_cur], t_cur + delta); after a complete step
// the view delta is accurate from the propagation start to the new t_cur,
// which becomes the view-delta high-water mark (Theorem 4.2).

#ifndef ROLLVIEW_IVM_PROPAGATE_H_
#define ROLLVIEW_IVM_PROPAGATE_H_

#include <memory>

#include "ivm/compute_delta.h"
#include "ivm/interval_policy.h"
#include "ivm/query_runner.h"

namespace rollview {

struct PropagatorOptions {
  RunnerOptions runner;
  ComputeDeltaOptions compute_delta;
};

class Propagator {
 public:
  Propagator(ViewManager* views, View* view,
             std::unique_ptr<IntervalPolicy> policy,
             PropagatorOptions options = PropagatorOptions{});

  // Runs one complete iteration of the Figure 5 loop. Returns true if the
  // high-water mark advanced, false if there was nothing to propagate.
  Result<bool> Step();

  // Steps until the high-water mark reaches `target` (which must become
  // reachable, i.e. capture must eventually pass it).
  Status RunUntil(Csn target);

  Csn high_water_mark() const { return t_cur_; }

  QueryRunner* runner() { return &runner_; }
  const ComputeDeltaStats& compute_delta_stats() const {
    return compute_delta_.stats();
  }

 private:
  // Durable cursor publication after a completed step (uniform frontiers:
  // n copies of t_cur_). See RollingPropagator::PublishCursors.
  void PublishCursors(uint64_t completed_seq);

  ViewManager* views_;
  View* view_;
  std::unique_ptr<IntervalPolicy> policy_;
  QueryRunner runner_;
  ComputeDeltaOp compute_delta_;
  StepUndoLog undo_log_;
  uint64_t step_seq_ = 1;
  Csn t_cur_;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_PROPAGATE_H_
