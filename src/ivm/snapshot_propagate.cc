#include "ivm/snapshot_propagate.h"

namespace rollview {

SnapshotPropagator::SnapshotPropagator(ViewManager* views, View* view,
                                       std::unique_ptr<IntervalPolicy> policy,
                                       SnapshotForm form)
    : views_(views),
      view_(view),
      policy_(std::move(policy)),
      form_(form),
      t_cur_(view->propagate_from.load(std::memory_order_acquire)) {
  boundaries_.push_back(t_cur_);
}

Result<bool> SnapshotPropagator::Step() {
  // Snapshots exist up to the stable CSN; delta completeness up to the
  // capture mark. Both bound the interval end.
  Csn ready = std::min(views_->DeltaReadyCsn(), views_->db()->stable_csn());
  if (ready <= t_cur_) return false;

  Csn t_next = ready;
  for (size_t i = 0; i < view_->resolved.num_terms(); ++i) {
    DeltaTable* dt = views_->db()->delta(view_->resolved.table(i));
    Csn b = policy_->NextBoundary(t_cur_, ready, *dt);
    if (b > t_cur_ && b < t_next) t_next = b;
  }
  if (t_next <= t_cur_) return false;

  DeltaRows rows;
  if (form_ == SnapshotForm::kEq1Timed) {
    ROLLVIEW_ASSIGN_OR_RETURN(
        rows, ComputeDeltaEq1Snapshot(views_->db(), view_->resolved, t_cur_,
                                      t_next, &stats_.exec));
  } else {
    ROLLVIEW_ASSIGN_OR_RETURN(
        rows, ComputeDeltaEq2Snapshot(views_->db(), view_->resolved, t_cur_,
                                      t_next, &stats_.exec));
  }
  stats_.rows_appended += rows.size();
  view_->view_delta->AppendBatch(std::move(rows));
  stats_.intervals++;

  t_cur_ = t_next;
  boundaries_.push_back(t_cur_);
  view_->delta_hwm.Advance(t_cur_);
  return true;
}

Status SnapshotPropagator::RunUntil(Csn target) {
  return views_->StepUntil(
      target, [this] { return t_cur_; },
      [this](bool* advanced) -> Status {
        ROLLVIEW_ASSIGN_OR_RETURN(*advanced, Step());
        return Status::OK();
      });
}

}  // namespace rollview
