#include "ivm/query_runner.h"

#include <cassert>
#include <thread>

#include "capture/log_capture.h"
#include "common/fault_injector.h"
#include "obs/registry.h"

namespace rollview {

QueryRunner::QueryRunner(ViewManager* views, View* view,
                         RunnerOptions options)
    : views_(views), view_(view), options_(options) {}

void QueryRunner::RegisterMetrics(obs::MetricsRegistry* registry,
                                  const void* owner) const {
  // Same metric schema MaintenanceService::RegisterMetrics exports from its
  // post-step mirrors, sourced straight from the (unsynchronized) stats
  // struct -- quiescent-scrape only.
  const std::string& v = view_->name;
  const RunnerStats* s = &stats_;
  registry->RegisterCounterFn(
      "rollview_queries_total", {{"view", v}, {"kind", "forward"}},
      [s] { return s->forward_queries; }, owner);
  registry->RegisterCounterFn(
      "rollview_queries_total", {{"view", v}, {"kind", "compensation"}},
      [s] { return s->comp_queries; }, owner);
  registry->RegisterCounterFn(
      "rollview_query_retries_total", {{"view", v}, {"cause", "aborted"}},
      [s] { return s->retries_aborted; }, owner);
  registry->RegisterCounterFn(
      "rollview_query_retries_total", {{"view", v}, {"cause", "busy"}},
      [s] { return s->retries_busy; }, owner);
  registry->RegisterCounterFn("rollview_view_delta_rows_total", {{"view", v}},
                              [s] { return s->rows_appended; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_total", {{"view", v}, {"dir", "in"}},
      [s] { return s->exec.input_rows; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_total", {{"view", v}, {"dir", "out"}},
      [s] { return s->exec.output_rows; }, owner);
  registry->RegisterCounterFn("rollview_exec_index_probes_total",
                              {{"view", v}},
                              [s] { return s->exec.index_probes; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_pushdown_filtered_total", {{"view", v}},
      [s] { return s->exec.pushdown_filtered; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_moved_total", {{"view", v}, {"path", "copied"}},
      [s] { return s->exec.rows_copied; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_moved_total", {{"view", v}, {"path", "borrowed"}},
      [s] { return s->exec.rows_borrowed; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_bytes_moved_total", {{"view", v}, {"path", "copied"}},
      [s] { return s->exec.bytes_copied; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_bytes_moved_total", {{"view", v}, {"path", "borrowed"}},
      [s] { return s->exec.bytes_borrowed; }, owner);
  registry->RegisterCounterFn("rollview_exec_nanos_total", {{"view", v}},
                              [s] { return s->exec.exec_nanos; }, owner);
}

Status QueryRunner::EnsureSpecialTable() {
  if (special_table_ != kInvalidTableId) return Status::OK();
  // One probe table per view; capture must be in log mode so that DPropR
  // (LogCapture) resolves the marker's transaction to a CSN.
  std::string name = "__uow_probe_" + view_->name;
  Result<TableId> existing = views_->db()->FindTable(name);
  if (existing.ok()) {
    special_table_ = existing.value();
    return Status::OK();
  }
  Schema schema({Column{"marker", ValueType::kInt64}});
  ROLLVIEW_ASSIGN_OR_RETURN(special_table_,
                            views_->db()->CreateTable(name, schema));
  return Status::OK();
}

Result<Csn> QueryRunner::Execute(const PropQuery& q) {
  assert(q.view == view_);
  // The query may only read delta ranges that capture has fully published.
  Csn need = kNullCsn;
  for (const PropTerm& t : q.terms) {
    if (t.is_delta && t.range.hi > need) need = t.range.hi;
  }
  if (need != kNullCsn && views_->capture() != nullptr) {
    ROLLVIEW_RETURN_NOT_OK(
        views_->capture()->WaitForCsn(need, options_.capture_wait_timeout));
  }

  int attempts = 0;
  while (true) {
    Result<Csn> r = ExecuteOnce(q);
    if (r.ok()) {
      if (tracer_ != nullptr && attempts > 0) {
        tracer_->AttrCurrent("query_retries", attempts);
      }
      return r;
    }
    if (!r.status().IsTransient() || ++attempts > options_.max_retries) {
      return r;
    }
    stats_.retries++;
    if (r.status().IsTxnAborted()) {
      stats_.retries_aborted++;
    } else {
      stats_.retries_busy++;
    }
    std::this_thread::sleep_for(options_.retry_backoff * attempts);
  }
}

Status QueryRunner::CancelFailedStep(StepUndoLog* log) {
  if (log->empty()) return Status::OK();
  Db* db = views_->db();
  obs::ScopedSpan undo_span(tracer_, obs::SpanKind::kUndo);
  undo_span.Attr("rows", static_cast<int64_t>(log->rows().size()));
  if (tracer_ != nullptr) tracer_->MarkUndone();
  // Deliberately NOT inside a FaultInjector::Scope: the cancellation is the
  // recovery path, so injected maintenance faults do not apply to it. Real
  // transient conflicts still can, hence the bounded retry loop.
  Status last;
  const uint32_t part = partition_ != nullptr ? partition_->index : 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::unique_ptr<Txn> txn = db->Begin(TxnClass::kMaintenance);
    for (const DeltaRow& row : log->rows()) {
      DeltaRow neg = row;
      neg.count = -neg.count;
      // Same step sequence as the rows being cancelled: at recovery the pair
      // is included or excluded together, net zero either way.
      db->BufferDeltaAppend(txn.get(), view_->view_delta.get(),
                            std::move(neg), view_->id, step_seq_, part);
    }
    last = db->Commit(txn.get());
    if (last.ok()) {
      log->Clear();
      undo_span.Attr("attempts", attempt + 1);
      return Status::OK();
    }
    db->Abort(txn.get()).ok();
    if (!last.IsTransient()) break;
    std::this_thread::sleep_for(options_.retry_backoff * (attempt + 1));
  }
  undo_span.set_ok(false);
  return Status::Internal(
      "could not cancel a partially committed propagation step: " +
      last.ToString());
}

Result<Csn> QueryRunner::ExecuteOnce(const PropQuery& q) {
  Db* db = views_->db();
  const ResolvedView& rv = view_->resolved;
  // Propagation transactions are the scoped fault-injection target: an
  // armed injector aborts/stalls maintenance here without touching updaters.
  FaultInjector::Scope fault_scope;
  std::unique_ptr<Txn> txn = db->Begin(TxnClass::kMaintenance);

  auto fail = [&](Status s) -> Result<Csn> {
    db->Abort(txn.get()).ok();
    return s;
  };

  // Materialize the delta-range terms as zero-copy borrows: ScanRefs pins
  // the delta store (pruning defers) and the executor reads the rows in
  // place -- the pins outlive the execution below. In trigger-capture mode
  // the delta table is part of updaters' footprints, so reading it requires
  // an S lock on its resource (this is the contention experiment E7
  // measures).
  std::vector<DeltaRowRefs> materialized(q.num_terms());
  std::vector<DeltaTable::Pin> pins(q.num_terms());
  JoinQuery jq;
  jq.terms.reserve(q.num_terms());
  for (size_t i = 0; i < q.num_terms(); ++i) {
    TableId tid = rv.table(i);
    if (q.terms[i].is_delta) {
      Status s = db->LockDeltaShared(txn.get(), tid);
      if (!s.ok()) return fail(s);
      if (partition_ != nullptr && partition_->enabled()) {
        DeltaPartitionFilter f = partition_->FilterFor(i);
        materialized[i] =
            db->delta(tid)->ScanRefs(q.terms[i].range, &f, &pins[i]);
      } else {
        materialized[i] = db->delta(tid)->ScanRefs(q.terms[i].range, &pins[i]);
      }
      jq.terms.push_back(TermSource::RowRefs(tid, &materialized[i]));
    } else {
      // Lock before evaluation so every base term is seen at one time (the
      // commit CSN); strict 2PL holds the lock through commit.
      Status s = db->LockTableShared(txn.get(), tid);
      if (!s.ok()) return fail(s);
      jq.terms.push_back(TermSource::BaseCurrent(tid));
    }
  }
  jq.equi_joins = rv.def().joins;
  jq.residual = rv.def().selection;
  jq.projection = rv.def().projection;
  jq.sign = q.sign;

  JoinExecutor exec(db);
  Result<DeltaRows> rows = exec.Execute(jq, txn.get(), &stats_.exec);
  if (!rows.ok()) return fail(rows.status());
  DeltaRows out_rows = std::move(rows).value();

  // When a step-undo log is attached, keep a copy of what this transaction
  // publishes so a later query's failure can cancel it (see StepUndoLog).
  DeltaRows undo_copy;
  if (undo_log_ != nullptr) undo_copy = out_rows;
  size_t appended = out_rows.size();
  Csn csn;
  {
    // The append + commit is where this query's rows become durable
    // (Db::Commit WAL-logs the buffered view-delta appends just before the
    // commit record); the span covers exactly that window.
    obs::ScopedSpan wal_span(tracer_, obs::SpanKind::kWalAppend);
    wal_span.Attr("rows", static_cast<int64_t>(appended));
    const uint32_t part = partition_ != nullptr ? partition_->index : 0;
    for (DeltaRow& row : out_rows) {
      db->BufferDeltaAppend(txn.get(), view_->view_delta.get(),
                            std::move(row), view_->id, step_seq_, part);
    }

    if (options_.use_special_table_csn_resolution) {
      Status es = EnsureSpecialTable();
      if (!es.ok()) {
        wal_span.set_ok(false);
        return fail(es);
      }
      es = db->Insert(txn.get(), special_table_, Tuple{Value(++special_seq_)});
      if (!es.ok()) {
        wal_span.set_ok(false);
        return fail(es);
      }
    }

    Status s = db->Commit(txn.get());
    if (!s.ok()) {
      wal_span.set_ok(false);
      return fail(s);
    }
    csn = txn->commit_csn();
  }
  if (undo_log_ != nullptr) undo_log_->Record(std::move(undo_copy));
  if (tracer_ != nullptr) {
    // Annotate the caller's query span (forward/compensation) and roll the
    // rows into the step's root count.
    tracer_->AttrCurrent("rows", static_cast<int64_t>(appended));
    tracer_->AttrCurrent("csn", static_cast<int64_t>(csn));
    tracer_->AddStepRows(appended);
  }

  if (options_.use_special_table_csn_resolution &&
      views_->capture() != nullptr) {
    // The prototype's round-trip: wait for DPropR to capture the marker,
    // then resolve this transaction's serialization time via the UOW table
    // (Sec. 5). It must agree with the engine-reported commit CSN.
    ROLLVIEW_RETURN_NOT_OK(views_->capture()->WaitForCsn(csn));
    auto entry = db->uow()->LookupTxn(txn->id());
    if (!entry.has_value()) {
      return Status::Internal("UOW table missing propagation transaction");
    }
    if (entry->csn != csn) {
      return Status::Internal("UOW-resolved CSN disagrees with commit CSN");
    }
    csn = entry->csn;
  }

  stats_.queries++;
  stats_.rows_appended += appended;
  if (q.NumDeltaTerms() == 1) {
    stats_.forward_queries++;
  } else {
    stats_.comp_queries++;
  }

  if (tracker_ != nullptr) {
    RegionTracker::Region region;
    region.extent.reserve(q.num_terms());
    for (const PropTerm& t : q.terms) {
      region.extent.push_back(t.is_delta ? t.range : CsnRange{0, csn});
    }
    region.sign = q.sign;
    region.label = q.ToString() + " @t" + std::to_string(csn);
    tracker_->Record(std::move(region));
  }
  return csn;
}

}  // namespace rollview
