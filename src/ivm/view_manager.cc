#include "ivm/view_manager.h"

#include <algorithm>
#include <unordered_map>

#include "ivm/checkpoint.h"
#include "storage/wal_codec.h"

namespace rollview {

Result<View*> ViewManager::CreateView(const std::string& name,
                                      SpjViewDef def) {
  ROLLVIEW_ASSIGN_OR_RETURN(ResolvedView resolved,
                            ResolvedView::Resolve(db_, std::move(def)));
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& v : views_) {
    if (v->name == name) {
      return Status::AlreadyExists("view '" + name + "' exists");
    }
  }
  auto view = std::make_unique<View>();
  view->id = next_id_++;
  view->name = name;
  view->resolved = std::move(resolved);
  view->view_delta = std::make_unique<DeltaTable>(
      "vdelta_" + name, view->resolved.view_schema(), /*ts_sorted=*/false);
  view->mv = std::make_unique<MaterializedView>(view->resolved.view_schema());
  // Named lock resources: keep view locks clear of delta-table resources
  // (which use the base TableId directly).
  view->mv_lock_resource = (1ULL << 20) + view->id;
  views_.push_back(std::move(view));
  // Durable id -> name binding: view ids restart per crash generation, so
  // every later view record in the log resolves its id through the most
  // recent preceding kCreateView. Catalog records are forced to disk like
  // CreateTable's: losing one would orphan every later record of the view.
  Lsn lsn = db_->wal()->Append(MakeCreateViewRecord(*views_.back()));
  if (db_->wal()->durable()) {
    // Propagate a failed force like CreateTable does: a caller told the
    // view exists while its catalog record never reached disk would lose
    // the whole view on recovery.
    ROLLVIEW_RETURN_NOT_OK(db_->wal()->SyncTo(lsn));
  }
  return views_.back().get();
}

std::vector<View*> ViewManager::AllViews() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<View*> out;
  out.reserve(views_.size());
  for (const auto& v : views_) out.push_back(v.get());
  return out;
}

View* ViewManager::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& v : views_) {
    if (v->name == name) return v.get();
  }
  return nullptr;
}

Status ViewManager::StepUntil(Csn target, const std::function<Csn()>& hwm,
                              const std::function<Status(bool*)>& step) {
  CsnFrontier* ready = DeltaReadyFrontier();
  while (hwm() < target) {
    const Csn seen = ready->value();
    bool advanced = false;
    ROLLVIEW_RETURN_NOT_OK(step(&advanced));
    if (advanced || hwm() >= target) continue;
    if (capture_ != nullptr) {
      ROLLVIEW_RETURN_NOT_OK(
          capture_->WaitForCsn(std::min(target, db_->stable_csn())));
    }
    ready->WaitPast(seen, CsnFrontier::Clock::now() + kPipelineHeartbeat);
  }
  return Status::OK();
}

Status ViewManager::Materialize(View* view) {
  const ResolvedView& rv = view->resolved;
  std::unique_ptr<Txn> txn = db_->Begin(TxnClass::kMaintenance);

  JoinQuery q;
  q.terms.reserve(rv.num_terms());
  for (size_t i = 0; i < rv.num_terms(); ++i) {
    q.terms.push_back(TermSource::BaseCurrent(rv.table(i)));
  }
  q.equi_joins = rv.def().joins;
  q.residual = rv.def().selection;
  q.projection = rv.def().projection;

  JoinExecutor exec(db_);
  Result<DeltaRows> rows = exec.Execute(q, txn.get());
  if (!rows.ok()) {
    db_->Abort(txn.get()).ok();
    return rows.status();
  }
  Status cs = db_->Commit(txn.get());
  if (!cs.ok()) {
    db_->Abort(txn.get()).ok();  // failed commit leaves the txn active
    return cs;
  }
  Csn csn = txn->commit_csn();

  view->mv->Replace(ToCountMap(rows.value()), csn);
  view->propagate_from.store(csn, std::memory_order_release);
  view->delta_hwm.Reset(csn);
  // Materialization resets maintenance history: fresh cursors, and an
  // initial checkpoint so a crash right after this point recovers the full
  // computation instead of redoing it.
  CursorState cursors;
  cursors.tfwd.assign(view->resolved.num_terms(), csn);
  cursors.tcomp.assign(view->resolved.num_terms(), csn);
  cursors.next_step_seq = 1;
  view->ClearCursors();  // including any stale partition chains
  view->StoreCursors(std::move(cursors));
  return WriteViewCheckpoint(db_, view);
}

namespace {

// Per-view replay state, keyed by name (ids are remapped in log order).
struct ReplayedAppend {
  size_t idx = 0;  // position in `records`
  DeltaRow row;
  uint64_t step_seq = 0;
  uint32_t partition = 0;
};
struct ReplayedCursor {
  size_t idx = 0;
  ViewCursorBlob blob;
};
struct PerView {
  bool has_checkpoint = false;
  size_t checkpoint_idx = 0;
  ViewCheckpointBlob checkpoint;
  std::vector<ReplayedAppend> appends;  // committed, in log order
  std::vector<ReplayedCursor> cursors;
  Csn applied = kNullCsn;  // latest durable applied mark (monotone)
  uint64_t max_step_seq = 0;
};
struct PendingAppend {
  std::string view_name;
  ReplayedAppend append;
};
using PerViewMap = std::unordered_map<std::string, PerView>;

// A checkpoint's rows must reproduce its stored digest (pre-digest
// checkpoints carry none and are trusted as before). The blob codec's
// trailing CRC already rejects most damage at decode; this catches a
// semantically-valid decode whose contents nevertheless disagree with the
// digest the writer computed.
bool CheckpointDigestOk(const ViewCheckpointBlob& blob) {
  if (!blob.has_digest) return true;
  CountMap contents;
  contents.reserve(blob.mv_rows.size());
  for (const auto& [tuple, count] : blob.mv_rows) {
    contents[tuple] += count;
  }
  return ViewDigest::Compute(contents) == blob.digest;
}

// Scans `records` into per-view replay state. Corrupt kViewCheckpoint
// payloads (undecodable, or digest-failed) are counted and SKIPPED so the
// previous good checkpoint stays selected -- the "last good checkpoint"
// fallback the scrub repair path and crash recovery both rely on. The
// longer replay suffix that results is correct: checkpoint blobs carry the
// full delta contents, and suffix appends are gated per partition on
// durable cursors, so re-discard logic handles anything mid-flight.
// Corruption of the *incremental* record kinds has no such fallback and
// stays a hard error.
Status ParseViewWalRecords(const std::vector<WalRecord>& records,
                           ViewManager::RecoveryReport* report,
                           PerViewMap* state) {
  std::unordered_map<ViewId, std::string> names;  // current id -> name
  std::unordered_map<TxnId, std::vector<PendingAppend>> pending;

  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& rec = records[i];
    switch (rec.kind) {
      case WalRecord::Kind::kCreateView:
        if (rec.blob == nullptr) {
          return Status::Internal("kCreateView record without payload");
        }
        names[rec.view] = *rec.blob;
        break;
      case WalRecord::Kind::kViewDeltaAppend: {
        auto name_it = names.find(rec.view);
        if (name_it == names.end()) {
          return Status::Internal("view-delta append for unknown view id " +
                                  std::to_string(rec.view));
        }
        PendingAppend p;
        p.view_name = name_it->second;
        p.append.idx = i;
        if (rec.blob == nullptr ||
            !DecodeViewDeltaBlob(*rec.blob, &p.append.row, &p.append.step_seq,
                                 &p.append.partition)) {
          return Status::Internal("corrupt view-delta append payload");
        }
        pending[rec.txn].push_back(std::move(p));
        break;
      }
      case WalRecord::Kind::kCommit: {
        auto it = pending.find(rec.txn);
        if (it != pending.end()) {
          for (PendingAppend& p : it->second) {
            PerView& pv = (*state)[p.view_name];
            pv.max_step_seq = std::max(pv.max_step_seq, p.append.step_seq);
            pv.appends.push_back(std::move(p.append));
          }
          pending.erase(it);
        }
        break;
      }
      case WalRecord::Kind::kAbort:
        pending.erase(rec.txn);
        break;
      case WalRecord::Kind::kViewCursor: {
        ReplayedCursor c;
        c.idx = i;
        if (rec.blob == nullptr ||
            !DecodeViewCursorBlob(*rec.blob, &c.blob)) {
          return Status::Internal("corrupt view-cursor payload");
        }
        PerView& pv = (*state)[c.blob.view_name];
        pv.max_step_seq =
            std::max(pv.max_step_seq, c.blob.completed_step_seq);
        pv.cursors.push_back(std::move(c));
        report->cursor_records++;
        break;
      }
      case WalRecord::Kind::kViewApplied: {
        ViewAppliedBlob blob;
        if (rec.blob == nullptr || !DecodeViewAppliedBlob(*rec.blob, &blob)) {
          return Status::Internal("corrupt view-applied payload");
        }
        PerView& pv = (*state)[blob.view_name];
        pv.applied = std::max(pv.applied, blob.applied_csn);
        break;
      }
      case WalRecord::Kind::kViewCheckpoint: {
        report->checkpoints_seen++;
        ViewCheckpointBlob blob;
        if (rec.blob == nullptr ||
            !DecodeViewCheckpointBlob(*rec.blob, &blob) ||
            !CheckpointDigestOk(blob)) {
          // Damaged snapshot: skip it so the previous good checkpoint stays
          // selected. NOT a hard error -- checkpoints are redundant with
          // the suffix that follows the surviving one.
          report->checkpoints_corrupt++;
          break;
        }
        PerView& pv = (*state)[blob.view_name];
        pv.checkpoint = std::move(blob);
        pv.has_checkpoint = true;
        pv.checkpoint_idx = i;
        break;
      }
      default:
        break;  // base-table records: Db::Recover's concern.
                // kViewScrub/kViewQuarantine are audit records: recovery
                // replays state, not scrub history, and a freshly restored
                // (digest-verified) view starts healthy.
    }
  }
  // Entries left in `pending` belong to transactions without a commit
  // record -- the crash's in-flight tail -- and are dropped, exactly as
  // Db::Recover drops their base-table ops.
  return Status::OK();
}

// Restores one live view from its parsed replay state. On success sets
// *recovered; a shape mismatch between the registered definition and the
// logged state clears *recovered (the caller re-Materializes); corrupt
// incremental state is a hard error. The view's delta table is cleared
// before reload so the same machinery serves both crash recovery (empty
// tables) and online repair (populated, possibly damaged tables).
Status RestoreOneView(Db* db, View* view, PerView& pv,
                      ViewManager::RecoveryReport* report, bool* recovered) {
  *recovered = false;
  const ViewCheckpointBlob& cp = pv.checkpoint;
  const size_t n = view->resolved.num_terms();
  if (cp.tfwd.size() != n || cp.tcomp.size() != n) {
    // The registered definition disagrees with the logged state (e.g. the
    // view was re-registered with a different shape). Treat as not
    // recoverable rather than poisoning the whole recovery.
    report->views_unrecovered++;
    return Status::OK();
  }

  // Cursor state: checkpoint baselines, then every durable advance after
  // them, replayed keyed by (view, partition, sequence) -- partitioned
  // strips log independent cursor chains that restart sequence numbering
  // per partition, so a single last-cursor-wins fold across partitions
  // would interleave unrelated chains. Each partition's last completed
  // sequence decides which of its replayed rows are kept: a step's rows
  // are included iff a cursor record of the SAME partition covering the
  // step's sequence number is durable. (A step that failed and was
  // cancelled in-process contributes rows AND their exact negations under
  // the same sequence number, so including or excluding the pair is
  // net-zero either way.)
  struct Chain {
    std::vector<Csn> tfwd;
    std::vector<Csn> tcomp;
    std::vector<std::vector<ForwardStrip>> strips;
    uint64_t last_completed_seq = 0;
  };
  std::map<uint32_t, Chain> chains;
  uint32_t num_partitions = std::max<uint32_t>(cp.num_partitions, 1);
  {
    Chain& c0 = chains[0];
    c0.tfwd = cp.tfwd;
    c0.tcomp = cp.tcomp;
    c0.strips = cp.strips;
    c0.last_completed_seq = cp.next_step_seq - 1;
  }
  bool extras_ok = true;
  for (const PartitionCursorBlob& pcb : cp.extra_partitions) {
    if (pcb.tfwd.size() != n || pcb.tcomp.size() != n) {
      extras_ok = false;
      break;
    }
    Chain& c = chains[pcb.partition];
    c.tfwd = pcb.tfwd;
    c.tcomp = pcb.tcomp;
    c.strips = pcb.strips;
    c.last_completed_seq = pcb.next_step_seq - 1;
  }
  if (!extras_ok) {
    report->views_unrecovered++;
    return Status::OK();
  }
  for (const ReplayedCursor& c : pv.cursors) {
    if (c.idx <= pv.checkpoint_idx) continue;
    if (c.blob.tfwd.size() != n || c.blob.tcomp.size() != n) {
      return Status::Internal("cursor record arity mismatch for view '" +
                              view->name + "'");
    }
    num_partitions = c.blob.num_partitions;
    auto chain_it = chains.find(c.blob.partition);
    if (chain_it != chains.end()) {
      Chain& chain = chain_it->second;
      // Fail loudly on ambiguity instead of silently taking the last
      // record: within one partition's chain the completed sequence
      // number never regresses (TryFinish may legitimately republish the
      // SAME sequence with lifted compensation frontiers), and forward
      // frontiers are monotone.
      if (c.blob.completed_step_seq < chain.last_completed_seq) {
        return Status::Internal(
            "duplicate/ambiguous cursor for view '" + view->name +
            "' partition " + std::to_string(c.blob.partition) +
            ": completed step " +
            std::to_string(c.blob.completed_step_seq) +
            " after durable step " +
            std::to_string(chain.last_completed_seq));
      }
      for (size_t i = 0; i < n; ++i) {
        if (c.blob.tfwd[i] < chain.tfwd[i]) {
          return Status::Internal(
              "cursor frontier regression for view '" + view->name +
              "' partition " + std::to_string(c.blob.partition) +
              " at step " + std::to_string(c.blob.completed_step_seq));
        }
      }
    }
    Chain& chain = chains[c.blob.partition];
    chain.tfwd = c.blob.tfwd;
    chain.tcomp = c.blob.tcomp;
    chain.strips = c.blob.strips;
    chain.last_completed_seq =
        std::max(chain.last_completed_seq, c.blob.completed_step_seq);
  }
  // Partitions of the final generation that never published a durable
  // cursor resume from the checkpoint baseline when it is settled (the
  // only state a partitioned driver may start strips from); their rows,
  // if any, are discarded below, so the baseline start is exact.
  if (num_partitions > 1 && cp.tfwd == cp.tcomp) {
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (chains.count(p) != 0) continue;
      Chain& c = chains[p];
      c.tfwd = cp.tfwd;
      c.tcomp = cp.tcomp;
      c.last_completed_seq = cp.next_step_seq - 1;
    }
  }

  // Restore the MV and the timed view delta. Online repair restores over
  // a live (damaged) view, so drop the existing delta rows first; after a
  // crash the table is empty and Clear is a no-op.
  CountMap contents;
  contents.reserve(cp.mv_rows.size());
  for (const auto& [tuple, count] : cp.mv_rows) {
    contents.emplace(tuple, count);
  }
  view->mv->Replace(std::move(contents), cp.mv_csn);
  view->view_delta->Clear();
  view->view_delta->AppendBatch(cp.view_delta);
  report->delta_rows_restored += cp.view_delta.size();
  for (ReplayedAppend& a : pv.appends) {
    if (a.idx <= pv.checkpoint_idx) continue;  // inside the snapshot
    auto chain_it = chains.find(a.partition);
    if (chain_it == chains.end() ||
        a.step_seq > chain_it->second.last_completed_seq) {
      // Mid-flight strip at the crash: its cursor advance never became
      // durable, so the strip will re-run from the recovered cursors --
      // dropping its rows here is the StepUndoLog cancellation, replayed.
      // With partitioned strips this is a PER-PARTITION decision: one
      // partition's durable cursor must not vouch for another
      // partition's mid-flight rows.
      report->rows_discarded++;
      continue;
    }
    view->view_delta->Append(std::move(a.row));
    report->delta_rows_restored++;
  }

  view->propagate_from.store(cp.propagate_from, std::memory_order_release);
  // Theorem 4.3 per slice: partition p's slice of the view delta is
  // complete through min_i tcomp[p][i], so the view-level mark is the
  // minimum over the final generation's partitions. A partition with no
  // durable state contributes nothing (the mark then falls back to the
  // checkpointed floors below -- conservative, never overstated).
  Csn min_tcomp = kMaxCsn;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    auto chain_it = chains.find(p);
    if (chain_it == chains.end()) {
      min_tcomp = kNullCsn;
      break;
    }
    for (size_t i = 0; i < n; ++i) {
      min_tcomp = std::min(min_tcomp, chain_it->second.tcomp[i]);
    }
  }
  if (min_tcomp == kMaxCsn) min_tcomp = kNullCsn;
  Csn hwm = std::max({min_tcomp, cp.delta_hwm, cp.mv_csn});
  view->delta_hwm.Reset(hwm);

  // Roll the MV to the last durable applied mark (not to the high-water
  // mark: when the apply driver runs point-in-time, recovery must not
  // advance the view past where apply had taken it).
  Csn target = std::min(pv.applied, hwm);
  if (target > cp.mv_csn) {
    DeltaRows window =
        view->view_delta->Scan(CsnRange{cp.mv_csn, target});
    ROLLVIEW_RETURN_NOT_OK(view->mv->Merge(window, target));
  }

  // Seed the next propagators: one cursor chain per surviving partition
  // of the final generation. Sequence numbers continue above everything
  // ever logged for this view (any partition) so replayed rows can never
  // collide with rows of a future step.
  const uint64_t next_seq = std::max(cp.next_step_seq, pv.max_step_seq + 1);
  view->ClearCursors();
  for (auto& [p, chain] : chains) {
    if (p >= num_partitions) continue;  // retired generation's strip
    CursorState cursors;
    cursors.tfwd = std::move(chain.tfwd);
    cursors.tcomp = std::move(chain.tcomp);
    cursors.strips = std::move(chain.strips);
    cursors.next_step_seq = next_seq;
    cursors.num_partitions = num_partitions;
    view->StoreCursors(std::move(cursors), p);
  }
  // A freshly restored (digest-verified) view is healthy by construction.
  view->ClearQuarantine();
  report->views_recovered++;

  // Recovery checkpoint: shadows the discarded mid-flight rows still
  // present in the re-emitted log, so a second crash does not need to
  // re-discard them (their log positions precede this checkpoint).
  ROLLVIEW_RETURN_NOT_OK(WriteViewCheckpoint(db, view));
  *recovered = true;
  return Status::OK();
}

}  // namespace

Status ViewManager::Recover(const std::vector<WalRecord>& records,
                            RecoveryReport* report) {
  RecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RecoveryReport{};

  PerViewMap state;
  ROLLVIEW_RETURN_NOT_OK(ParseViewWalRecords(records, report, &state));

  for (View* view : AllViews()) {
    auto it = state.find(view->name);
    if (it == state.end() || !it->second.has_checkpoint) {
      report->views_unrecovered++;
      continue;
    }
    bool recovered = false;
    ROLLVIEW_RETURN_NOT_OK(
        RestoreOneView(db_, view, it->second, report, &recovered));
  }
  return Status::OK();
}

Status ViewManager::RecoverView(View* view,
                                const std::vector<WalRecord>& records,
                                RecoveryReport* report) {
  RecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RecoveryReport{};

  PerViewMap state;
  ROLLVIEW_RETURN_NOT_OK(ParseViewWalRecords(records, report, &state));

  auto it = state.find(view->name);
  if (it == state.end() || !it->second.has_checkpoint) {
    report->views_unrecovered++;
    return Status::NotFound("no digest-good checkpoint for view '" +
                            view->name + "' in the log");
  }
  bool recovered = false;
  ROLLVIEW_RETURN_NOT_OK(
      RestoreOneView(db_, view, it->second, report, &recovered));
  if (!recovered) {
    return Status::NotFound("logged state for view '" + view->name +
                            "' does not match its registered definition");
  }
  return Status::OK();
}

}  // namespace rollview
