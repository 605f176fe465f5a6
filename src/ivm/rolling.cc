#include "ivm/rolling.h"

#include <algorithm>
#include <cassert>

#include "ivm/checkpoint.h"

namespace rollview {

RollingPropagator::RollingPropagator(
    ViewManager* views, View* view,
    std::vector<std::unique_ptr<IntervalPolicy>> policies,
    RollingOptions options)
    : views_(views),
      view_(view),
      policies_(std::move(policies)),
      runner_(views, view, options.runner),
      compute_delta_(&runner_, options.compute_delta),
      skip_empty_(options.compute_delta.skip_empty_ranges),
      mode_(options.compensation),
      partition_(std::move(options.partition)),
      n_(view->resolved.num_terms()) {
  assert(policies_.size() == n_ && "one interval policy per base relation");
  if (partition_.enabled()) {
    assert(partition_.columns.size() == n_ &&
           "partition slice must cover every term");
    filters_.reserve(n_);
    for (size_t i = 0; i < n_; ++i) {
      filters_.push_back(partition_.FilterFor(i));
    }
    runner_.set_partition(&partition_);
  }
  querylist_.resize(n_);
  // Resume from the view's cursor control state when it exists (a previous
  // propagator over this view, or crash recovery, left it there); otherwise
  // start fresh at the materialization point. Without this, a second
  // propagator would re-propagate strips already covered by the first one.
  CursorState resume = view->LoadCursors(partition_.index);
  if (resume.valid && resume.tfwd.size() == n_ && resume.tcomp.size() == n_) {
    tfwd_ = resume.tfwd;
    tcomp_ = resume.tcomp;
    step_seq_ = resume.next_step_seq;
    if (resume.strips.size() == n_) {
      for (size_t j = 0; j < n_; ++j) {
        querylist_[j].assign(resume.strips[j].begin(),
                             resume.strips[j].end());
      }
    }
  } else {
    Csn start = view->propagate_from.load(std::memory_order_acquire);
    tfwd_.assign(n_, start);
    tcomp_.assign(n_, start);
  }
  CursorState init;
  init.tfwd = tfwd_;
  init.tcomp = tcomp_;
  init.next_step_seq = step_seq_;
  init.strips = SnapshotStrips();
  init.num_partitions = partition_.count;
  view->StoreCursors(std::move(init), partition_.index);
}

std::vector<std::vector<ForwardStrip>> RollingPropagator::SnapshotStrips()
    const {
  std::vector<std::vector<ForwardStrip>> out(n_);
  for (size_t j = 0; j < n_; ++j) {
    out[j].assign(querylist_[j].begin(), querylist_[j].end());
  }
  return out;
}

void RollingPropagator::PublishHwm() {
  if (hwm_hook_) {
    hwm_hook_(high_water_mark());
  } else {
    view_->delta_hwm.Advance(high_water_mark());
  }
}

void RollingPropagator::PublishCursors(uint64_t completed_seq) {
  CursorState state;
  state.tfwd = tfwd_;
  state.tcomp = tcomp_;
  state.next_step_seq = step_seq_;
  state.strips = SnapshotStrips();
  state.num_partitions = partition_.count;
  WalRecord rec =
      MakeViewCursorRecord(*view_, completed_seq, state, partition_.index);
  view_->StoreCursors(std::move(state), partition_.index);
  // Record first, hwm second: recovery recomputes the mark from durable
  // cursors, so an advance must never be observable without its cursor.
  views_->db()->wal()->Append(std::move(rec));
  PublishHwm();
}

RollingPropagator::RollingPropagator(ViewManager* views, View* view,
                                     Csn uniform_interval,
                                     RollingOptions options)
    : RollingPropagator(
          views, view,
          [&] {
            std::vector<std::unique_ptr<IntervalPolicy>> ps;
            for (size_t i = 0; i < view->resolved.num_terms(); ++i) {
              ps.push_back(std::make_unique<FixedInterval>(uniform_interval));
            }
            return ps;
          }(),
          std::move(options)) {}

void RollingPropagator::PruneQueryLists(Csn t) {
  // A forward query whose execution time is <= every frontier can no longer
  // overlap any future forward query (future queries start at frontiers and
  // a strip extends only to its execution time on foreign axes), so it is
  // fully compensated (paper footnote 4).
  for (size_t j = 0; j < n_; ++j) {
    while (!querylist_[j].empty() && querylist_[j].front().exec <= t) {
      querylist_[j].pop_front();
    }
  }
  RecomputeTcomp();
}

Csn RollingPropagator::CompTime(size_t j, Csn t) const {
  // Oldest not-fully-compensated forward query of R^j still covering
  // heights above t (exec > t); records are in increasing exec *and*
  // increasing lo order, so the covering set is a suffix and its x-union
  // starts at that record's lo. If none, only future strips (starting at
  // tfwd[j]) can overlap.
  for (const ForwardRecord& r : querylist_[j]) {
    if (r.exec > t) return r.lo;
  }
  return tfwd_[j];
}

Csn RollingPropagator::SegmentEnd(size_t i, Csn t, Csn cap) const {
  Csn end = cap;
  for (size_t j = 0; j < i; ++j) {
    for (const ForwardRecord& r : querylist_[j]) {
      if (r.exec > t && r.exec < end) end = r.exec;
    }
  }
  return end;
}

void RollingPropagator::RecomputeTcomp() {
  for (size_t j = 0; j < n_; ++j) {
    tcomp_[j] = querylist_[j].empty() ? tfwd_[j] : querylist_[j].front().lo;
  }
}

Csn RollingPropagator::high_water_mark() const {
  // Frontier mode settles each strip completely before advancing, so the
  // mark is the frontier minimum (the Theorem 4.2 argument); deferred mode
  // trails at the oldest uncompensated strip start (Theorem 4.3).
  Csn hwm = kMaxCsn;
  for (size_t j = 0; j < n_; ++j) {
    hwm = std::min(hwm, mode_ == CompensationMode::kFrontier ? tfwd_[j]
                                                             : tcomp_[j]);
  }
  return hwm == kMaxCsn ? kNullCsn : hwm;
}

void RollingPropagator::set_tracer(obs::StepTracer* tracer) {
  tracer_ = tracer;
  runner_.set_tracer(tracer);
  compute_delta_.set_tracer(tracer);
}

uint64_t RollingPropagator::BacklogRows() const {
  Csn ready = views_->DeltaReadyCsn();
  uint64_t total = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (tfwd_[i] >= ready) continue;
    const DeltaTable* dt = views_->db()->delta(view_->resolved.table(i));
    total += dt->CountInRange(CsnRange{tfwd_[i], ready}, FilterFor(i));
  }
  return total;
}

Result<bool> RollingPropagator::Step() {
  // If a previous step failed AND its cancellation failed, the undo log
  // still holds the partial step's rows. Retry the cancellation before
  // anything else -- clearing the log here instead would let those rows
  // stand uncancelled forever.
  if (!undo_log_.empty()) {
    ROLLVIEW_RETURN_NOT_OK(runner_.CancelFailedStep(&undo_log_));
  }

  Csn ready = views_->DeltaReadyCsn();

  // Choose the base relation with the smallest forward frontier.
  size_t i = 0;
  for (size_t j = 1; j < n_; ++j) {
    if (tfwd_[j] < tfwd_[i]) i = j;
  }
  if (tfwd_[i] >= ready) return false;  // every frontier is caught up

  PruneQueryLists(tfwd_[i]);

  DeltaTable* dt = views_->db()->delta(view_->resolved.table(i));
  Csn y1 = tfwd_[i];
  Csn y2 = policies_[i]->NextBoundaryFiltered(y1, ready, *dt, FilterFor(i));
  if (y2 <= y1) return false;
  stats_.steps++;

  // From here on the step does work, so it gets a trace: root span with
  // the chosen relation and interval, ended on every exit path below.
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->BeginStep(obs::SpanKind::kStep, view_->id, view_->name,
                       step_seq_);
    tracer_->Attr(1, "relation", static_cast<int64_t>(i));
    tracer_->Attr(1, "t_a", static_cast<int64_t>(y1));
    tracer_->Attr(1, "t_b", static_cast<int64_t>(y2));
    if (partition_.enabled()) {
      tracer_->Attr(1, "partition", static_cast<int64_t>(partition_.index));
    }
  }

  // Exact skip: an empty delta range makes the forward query (and every
  // compensation involving this strip) identically empty. The frontier
  // still advances. DeltaReadyCsn() >= y2 makes the emptiness final.
  if (skip_empty_ && dt->CountInRange(CsnRange{y1, y2}, FilterFor(i)) == 0) {
    tfwd_[i] = y2;
    stats_.forward_skipped++;
    RecomputeTcomp();
    // An empty step publishes no rows but still consumes a sequence number
    // and logs its frontier advance -- the advance must survive a crash.
    PublishCursors(step_seq_++);
    if (tracer_ != nullptr) {
      tracer_->EndStep(obs::StepOutcome::kSkippedEmpty);
    }
    return true;
  }

  // A step is a multi-transaction protocol: the forward query and each
  // compensation segment commit independently. If one of them fails after
  // earlier ones committed, retrying the step verbatim would duplicate the
  // committed rows -- so run the fallible body under a step-undo log and
  // cancel exactly what the failed step published before surfacing the
  // error to the supervisor.
  size_t pre_step_records = querylist_[i].size();
  uint64_t seq = step_seq_++;
  runner_.set_step_seq(seq);
  undo_log_.Clear();
  runner_.set_undo_log(&undo_log_);
  Status s = ForwardAndCompensate(i, y1, y2);
  runner_.set_undo_log(nullptr);
  if (!s.ok()) {
    querylist_[i].resize(pre_step_records);  // drop this step's ForwardRecord
    // The undo span (and the trace's undone flag) is recorded by
    // CancelFailedStep while this step's trace is still active.
    Status cancel = runner_.CancelFailedStep(&undo_log_);
    Status out = cancel.ok() ? s : cancel;
    if (tracer_ != nullptr) {
      tracer_->EndStep(out.IsTransient() ? obs::StepOutcome::kTransientError
                                         : obs::StepOutcome::kPermanentError,
                       out.ToString());
    }
    return out;
  }
  // Success: the log's contents are committed view rows, not pending undo
  // work. A populated log past this point would be cancelled (negated) at
  // the next Step's entry check, corrupting the delta.
  undo_log_.Clear();

  tfwd_[i] = y2;
  RecomputeTcomp();
  PublishCursors(seq);
  if (tracer_ != nullptr) tracer_->EndStep(obs::StepOutcome::kOk);
  return true;
}

Status RollingPropagator::ForwardAndCompensate(size_t i, Csn y1, Csn y2) {
  // Forward query for R^i over (y1, y2].
  PropQuery fwd = PropQuery::AllBase(view_);
  fwd.terms[i] = PropTerm::Delta(y1, y2);
  Csn t_exec;
  {
    obs::ScopedSpan fwd_span(tracer_, obs::SpanKind::kForward);
    fwd_span.Attr("relation", static_cast<int64_t>(i));
    Result<Csn> exec = runner_.Execute(fwd);
    if (!exec.ok()) {
      fwd_span.set_ok(false);
      return exec.status();
    }
    t_exec = exec.value();
  }
  stats_.forward_queries++;

  if (mode_ == CompensationMode::kFrontier) {
    // Compensate every other relation's drift back from the execution time
    // to its current frontier; the strip's net contribution becomes the
    // exact staircase rectangle (y1, y2] x prod_{j != i} (0, tfwd_j].
    std::vector<Csn> tau(n_, t_exec);
    for (size_t j = 0; j < n_; ++j) {
      if (j != i) tau[j] = tfwd_[j];
    }
    ROLLVIEW_RETURN_NOT_OK(compute_delta_.Run(fwd.Negated(), tau, t_exec));
    stats_.compensation_segments++;
  } else {
    // Deferred (Figure 10): remember the strip so higher-numbered relations
    // compensate against it later ("if i < n"; 0-based: all but the last
    // relation), and eagerly compensate overlap with lower-numbered
    // relations, splitting (y1, y2] into rectangular segments at querylist
    // execution times (the repeat/until of Figure 10).
    if (i + 1 < n_) {
      querylist_[i].push_back(ForwardRecord{y1, y2, t_exec});
    }
    if (i > 0) {
      Csn t = y1;
      while (t < y2) {
        Csn seg_end = SegmentEnd(i, t, y2);
        PropQuery comp = PropQuery::AllBase(view_, /*sign=*/-1);
        comp.terms[i] = PropTerm::Delta(t, seg_end);
        std::vector<Csn> tau(n_, t_exec);
        for (size_t j = 0; j < i; ++j) tau[j] = CompTime(j, t);
        ROLLVIEW_RETURN_NOT_OK(compute_delta_.Run(comp, tau, t_exec));
        stats_.compensation_segments++;
        t = seg_end;
      }
    }
  }
  return Status::OK();
}

Result<bool> RollingPropagator::TryFinish() {
  Csn max_exec = kNullCsn;
  for (const auto& list : querylist_) {
    for (const ForwardRecord& r : list) {
      if (r.exec > max_exec) max_exec = r.exec;
    }
  }
  if (max_exec != kNullCsn && views_->capture() != nullptr) {
    // The exec CSNs are commits of our own propagation queries; capture
    // reaches them by draining the log, after which the range counts below
    // are final.
    ROLLVIEW_RETURN_NOT_OK(views_->capture()->WaitForCsn(max_exec));
  }
  for (size_t j = 0; j < n_; ++j) {
    for (const ForwardRecord& strip : querylist_[j]) {
      for (size_t k = j + 1; k < n_; ++k) {
        DeltaTable* dk = views_->db()->delta(view_->resolved.table(k));
        if (dk->CountInRange(CsnRange{tfwd_[k], strip.exec}, FilterFor(k)) >
            0) {
          return false;  // real overlap remains; keep stepping
        }
      }
    }
  }
  bool retired_any = false;
  for (auto& list : querylist_) {
    retired_any = retired_any || !list.empty();
    list.clear();
  }
  RecomputeTcomp();
  if (retired_any) {
    // Retiring strips lifts tcomp (and possibly the hwm); make the new
    // cursor state durable like any step would.
    PublishCursors(step_seq_ - 1);
  } else {
    PublishHwm();
  }
  return true;
}

Status RollingPropagator::RunUntil(Csn target) {
  return views_->StepUntil(
      target, [this] { return high_water_mark(); },
      [this](bool* advanced) -> Status {
        ROLLVIEW_ASSIGN_OR_RETURN(*advanced, Step());
        return *advanced ? Status::OK() : TryFinish().status();
      });
}

}  // namespace rollview
