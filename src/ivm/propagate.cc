#include "ivm/propagate.h"

#include <algorithm>

#include "ivm/checkpoint.h"

namespace rollview {

Propagator::Propagator(ViewManager* views, View* view,
                       std::unique_ptr<IntervalPolicy> policy,
                       PropagatorOptions options)
    : views_(views),
      view_(view),
      policy_(std::move(policy)),
      runner_(views, view, options.runner),
      compute_delta_(&runner_, options.compute_delta),
      t_cur_(view->propagate_from.load(std::memory_order_acquire)) {
  // Resume from the view's cursor control state (uniform process: the
  // frontier is the minimum of whatever a previous propagator left).
  size_t n = view->resolved.num_terms();
  CursorState resume = view->LoadCursors();
  if (resume.valid && resume.tfwd.size() == n) {
    // The uniform process can safely restart at the slowest frontier: the
    // completeness argument only needs every axis propagated through t_cur.
    t_cur_ = *std::min_element(resume.tfwd.begin(), resume.tfwd.end());
    step_seq_ = resume.next_step_seq;
  }
  CursorState init;
  init.tfwd.assign(n, t_cur_);
  init.tcomp.assign(n, t_cur_);
  init.next_step_seq = step_seq_;
  view->StoreCursors(std::move(init));
}

void Propagator::PublishCursors(uint64_t completed_seq) {
  CursorState state;
  state.tfwd.assign(view_->resolved.num_terms(), t_cur_);
  state.tcomp.assign(view_->resolved.num_terms(), t_cur_);
  state.next_step_seq = step_seq_;
  WalRecord rec = MakeViewCursorRecord(*view_, completed_seq, state);
  view_->StoreCursors(std::move(state));
  views_->db()->wal()->Append(std::move(rec));
  view_->delta_hwm.Advance(t_cur_);
}

Result<bool> Propagator::Step() {
  // Retry a pending cancellation left by a failed previous step (see
  // RollingPropagator::Step for the rationale).
  if (!undo_log_.empty()) {
    ROLLVIEW_RETURN_NOT_OK(runner_.CancelFailedStep(&undo_log_));
  }

  Csn ready = views_->DeltaReadyCsn();
  if (ready <= t_cur_) return false;

  // Propagate uses one interval for all relations; ask the policy against
  // the busiest base delta (the first table's by convention is arbitrary --
  // a uniform-interval process has no per-relation knowledge, so we give it
  // the union cardinality by probing each and taking the earliest bound).
  Csn t_next = ready;
  for (size_t i = 0; i < view_->resolved.num_terms(); ++i) {
    DeltaTable* dt = views_->db()->delta(view_->resolved.table(i));
    Csn b = policy_->NextBoundary(t_cur_, ready, *dt);
    if (b > t_cur_ && b < t_next) t_next = b;
  }
  if (t_next <= t_cur_) return false;

  // PropagateInterval commits one transaction per query in the interval's
  // delta expansion; if a later one fails the earlier commits must be
  // cancelled before the supervisor may retry the step, or the retry
  // duplicates their rows (see StepUndoLog).
  uint64_t seq = step_seq_++;
  runner_.set_step_seq(seq);
  undo_log_.Clear();
  runner_.set_undo_log(&undo_log_);
  Status s = compute_delta_.PropagateInterval(view_, t_cur_, t_next);
  runner_.set_undo_log(nullptr);
  if (!s.ok()) {
    Status cancel = runner_.CancelFailedStep(&undo_log_);
    return cancel.ok() ? s : cancel;
  }
  // Success: clear the log so the next Step's entry check does not cancel
  // (negate) this step's committed rows.
  undo_log_.Clear();
  t_cur_ = t_next;
  PublishCursors(seq);
  return true;
}

Status Propagator::RunUntil(Csn target) {
  return views_->StepUntil(
      target, [this] { return t_cur_; },
      [this](bool* advanced) -> Status {
        ROLLVIEW_ASSIGN_OR_RETURN(*advanced, Step());
        return Status::OK();
      });
}

}  // namespace rollview
