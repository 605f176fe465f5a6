#include "ivm/baselines.h"

#include <cassert>

namespace rollview {

namespace {

JoinQuery SkeletonFor(const ResolvedView& rv) {
  JoinQuery q;
  q.equi_joins = rv.def().joins;
  q.residual = rv.def().selection;
  q.projection = rv.def().projection;
  return q;
}

}  // namespace

Result<DeltaRows> SnapshotViewState(Db* db, const ResolvedView& view, Csn t,
                                    ExecStats* stats) {
  JoinQuery q = SkeletonFor(view);
  for (size_t i = 0; i < view.num_terms(); ++i) {
    q.terms.push_back(TermSource::BaseSnapshot(view.table(i), t));
  }
  JoinExecutor exec(db);
  ROLLVIEW_ASSIGN_OR_RETURN(DeltaRows rows, exec.Execute(q, nullptr, stats));
  return NetEffect(rows);
}

Result<DeltaRows> ComputeDeltaEq2Snapshot(Db* db, const ResolvedView& view,
                                          Csn a, Csn b, ExecStats* stats) {
  JoinExecutor exec(db);
  DeltaRows out;
  const size_t n = view.num_terms();
  std::vector<DeltaRows> scans(n);
  for (size_t i = 0; i < n; ++i) {
    scans[i] = db->delta(view.table(i))->Scan(CsnRange{a, b});
    JoinQuery q = SkeletonFor(view);
    for (size_t j = 0; j < n; ++j) {
      if (j < i) {
        q.terms.push_back(TermSource::BaseSnapshot(view.table(j), a));
      } else if (j == i) {
        q.terms.push_back(TermSource::Rows(view.table(j), &scans[i]));
      } else {
        q.terms.push_back(TermSource::BaseSnapshot(view.table(j), b));
      }
    }
    ROLLVIEW_ASSIGN_OR_RETURN(DeltaRows rows, exec.Execute(q, nullptr, stats));
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

Result<DeltaRows> ComputeDeltaEq1Snapshot(Db* db, const ResolvedView& view,
                                          Csn a, Csn b, ExecStats* stats) {
  const size_t n = view.num_terms();
  assert(n <= 20 && "Eq. 1 expansion is exponential in the term count");
  JoinExecutor exec(db);
  DeltaRows out;
  std::vector<DeltaRows> scans(n);
  for (size_t i = 0; i < n; ++i) {
    scans[i] = db->delta(view.table(i))->Scan(CsnRange{a, b});
  }
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    JoinQuery q = SkeletonFor(view);
    int popcount = 0;
    for (size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) {
        ++popcount;
        q.terms.push_back(TermSource::Rows(view.table(j), &scans[j]));
      } else {
        q.terms.push_back(TermSource::BaseSnapshot(view.table(j), b));
      }
    }
    q.sign = (popcount % 2 == 1) ? +1 : -1;
    ROLLVIEW_ASSIGN_OR_RETURN(DeltaRows rows, exec.Execute(q, nullptr, stats));
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

Result<Csn> SyncRefresher::DrainCapture() {
  Csn stable = views_->db()->stable_csn();
  if (views_->capture() != nullptr) {
    ROLLVIEW_RETURN_NOT_OK(views_->capture()->WaitForCsn(stable));
  }
  return stable;
}

Result<Csn> SyncRefresher::RefreshEq1() {
  Db* db = views_->db();
  const ResolvedView& rv = view_->resolved;
  const size_t n = rv.num_terms();
  Csn t_old = view_->mv->csn();

  std::unique_ptr<Txn> txn = db->Begin(TxnClass::kMaintenance);
  auto fail = [&](Status s) -> Result<Csn> {
    db->Abort(txn.get()).ok();
    return s;
  };

  // The long atomic refresh transaction: freeze every base table, then let
  // capture drain so the delta tables are complete up to t_b.
  for (size_t i = 0; i < n; ++i) {
    Status s = db->LockTableShared(txn.get(), rv.table(i));
    if (!s.ok()) return fail(s);
    s = db->LockDeltaShared(txn.get(), rv.table(i));
    if (!s.ok()) return fail(s);
  }
  Result<Csn> drained = DrainCapture();
  if (!drained.ok()) return fail(drained.status());
  Csn t_b = drained.value();

  JoinExecutor exec(db);
  DeltaRows accumulated;
  std::vector<DeltaRows> scans(n);
  for (size_t i = 0; i < n; ++i) {
    scans[i] = db->delta(rv.table(i))->Scan(CsnRange{t_old, t_b});
  }
  uint64_t queries = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    JoinQuery q = SkeletonFor(rv);
    int popcount = 0;
    for (size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) {
        ++popcount;
        q.terms.push_back(TermSource::Rows(rv.table(j), &scans[j]));
      } else {
        q.terms.push_back(TermSource::BaseCurrent(rv.table(j)));
      }
    }
    q.sign = (popcount % 2 == 1) ? +1 : -1;
    Result<DeltaRows> rows = exec.Execute(q, txn.get(), &stats_.exec);
    if (!rows.ok()) return fail(rows.status());
    accumulated.insert(accumulated.end(), rows.value().begin(),
                       rows.value().end());
    ++queries;
  }

  // Apply within the same atomic transaction (Figure 1's single refresh
  // operation): X-lock the view so readers see old-or-new, never partial.
  Status s = db->LockNamedExclusive(txn.get(), view_->mv_lock_resource);
  if (!s.ok()) return fail(s);
  s = view_->mv->Merge(accumulated, t_b);
  if (!s.ok()) return fail(s);
  s = db->Commit(txn.get());
  if (!s.ok()) return fail(s);

  stats_.refreshes++;
  stats_.queries += queries;
  view_->delta_hwm.Advance(t_b);
  return t_b;
}

Result<Csn> SyncRefresher::RefreshFull() {
  Db* db = views_->db();
  const ResolvedView& rv = view_->resolved;

  std::unique_ptr<Txn> txn = db->Begin(TxnClass::kMaintenance);
  auto fail = [&](Status s) -> Result<Csn> {
    db->Abort(txn.get()).ok();
    return s;
  };

  // Freeze the base tables, then fix t_b.
  for (size_t i = 0; i < rv.num_terms(); ++i) {
    Status s = db->LockTableShared(txn.get(), rv.table(i));
    if (!s.ok()) return fail(s);
  }
  Result<Csn> drained = DrainCapture();
  if (!drained.ok()) return fail(drained.status());
  Csn t_b = drained.value();

  JoinQuery q = SkeletonFor(rv);
  for (size_t i = 0; i < rv.num_terms(); ++i) {
    q.terms.push_back(TermSource::BaseCurrent(rv.table(i)));
  }
  JoinExecutor exec(db);
  Result<DeltaRows> rows = exec.Execute(q, txn.get(), &stats_.exec);
  if (!rows.ok()) return fail(rows.status());

  Status s = db->LockNamedExclusive(txn.get(), view_->mv_lock_resource);
  if (!s.ok()) return fail(s);
  view_->mv->Replace(ToCountMap(rows.value()), t_b);
  s = db->Commit(txn.get());
  if (!s.ok()) return fail(s);
  stats_.refreshes++;
  stats_.queries += 1;
  view_->delta_hwm.Advance(t_b);
  return t_b;
}

}  // namespace rollview
