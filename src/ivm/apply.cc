#include "ivm/apply.h"

#include "common/fault_injector.h"
#include "ivm/checkpoint.h"

namespace rollview {

Status Applier::RollTo(Csn target) {
  // Apply transactions opt into scoped fault injection alongside
  // propagation (see common/fault_injector.h).
  FaultInjector::Scope fault_scope;
  Csn from = view_->mv->csn();
  if (target < from) {
    return Status::InvalidArgument(
        "cannot roll view backwards (mv at " + std::to_string(from) +
        ", target " + std::to_string(target) + ")");
  }
  if (target > view_->high_water_mark()) {
    return Status::OutOfRange(
        "target " + std::to_string(target) +
        " beyond view-delta high-water mark " +
        std::to_string(view_->high_water_mark()));
  }
  if (target == from) return Status::OK();

  // The transaction exists to serialize with MV readers and scrub repair
  // through the lock manager (X on the view resource); the MV itself is
  // not an engine table.
  std::unique_ptr<Txn> txn = views_->db()->Begin(TxnClass::kMaintenance);
  Status s = views_->db()->LockNamedExclusive(txn.get(),
                                              view_->mv_lock_resource);
  DeltaRows window;
  if (s.ok()) {
    window = view_->view_delta->Scan(CsnRange{from, target});
    s = view_->mv->Merge(window, target);
  }
  // Metadata-only roll: an empty window leaves the MV contents equal at
  // both CSNs (Def. 4.2), so only the materialization time moves and there
  // is nothing to commit. Abort just releases the X lock without taking a
  // CSN -- a commit would be a fresh delta-ready advance the propagator
  // skip-steps over, waking this driver again, forever.
  if (s.ok() && !window.empty()) s = views_->db()->Commit(txn.get());
  if (!s.ok() || window.empty()) {
    // A failed commit leaves the txn active too; abort it so the X lock on
    // the view resource is released before the supervisor retries (a
    // leaked lock would starve every later roll).
    views_->db()->Abort(txn.get()).ok();
  }
  ROLLVIEW_RETURN_NOT_OK(s);

  // Durable applied mark: recovery rolls the restored MV back to this CSN
  // (never past it -- point-in-time users must not find their view advanced
  // by a crash). The cursor records justifying `target` necessarily precede
  // this record in the WAL, since RollTo only targets the high-water mark.
  views_->db()->wal()->Append(MakeViewAppliedRecord(*view_, target));

  stats_.rolls++;
  if (window.empty()) stats_.empty_rolls++;
  stats_.rows_selected += window.size();
  if (options_.prune_view_delta) {
    stats_.rows_pruned += view_->view_delta->Prune(target);
  }

  // Corruption drills (scrub tests): a latent bit flip lands in the freshly
  // rolled extent -- after the roll, so it models silent storage damage
  // the transaction machinery cannot see, only the scrubber can.
  if (FaultInjector* fi = views_->db()->fault_injector()) {
    uint64_t seed = 0;
    if (fi->MaybeCorruptMvRow(&seed)) view_->mv->CorruptRowBit(seed);
    if (fi->MaybeTamperDigest(&seed)) view_->mv->TamperDigest(seed);
  }
  return Status::OK();
}

Result<Csn> Applier::RollToLatest() {
  Csn target = view_->high_water_mark();
  ROLLVIEW_RETURN_NOT_OK(RollTo(target));
  return target;
}

Result<Csn> Applier::RollToWallTime(WallTime t) {
  Csn csn = views_->db()->uow()->CsnAtOrBefore(t);
  if (csn == kNullCsn) {
    return Status::NotFound("no transaction committed at or before the "
                            "requested time");
  }
  // Clamp into the legal window.
  Csn from = view_->mv->csn();
  Csn hwm = view_->high_water_mark();
  if (csn < from) {
    return Status::InvalidArgument("requested time precedes the view's "
                                   "materialization time");
  }
  if (csn > hwm) {
    return Status::OutOfRange("requested time beyond the view-delta "
                              "high-water mark");
  }
  ROLLVIEW_RETURN_NOT_OK(RollTo(csn));
  return csn;
}

}  // namespace rollview
