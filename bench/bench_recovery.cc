// E10 -- recovery time vs checkpoint cadence.
//
// The checkpoint cadence (MaintenanceService::Options::checkpoint_every_steps)
// trades steady-state WAL volume for restart latency: a checkpoint is a full
// MV + view-delta + cursor snapshot, so frequent checkpoints fatten the log
// but shrink the WAL suffix recovery must replay. This bench builds the same
// maintenance history at cadences 0 (initial checkpoint only), 128, 32, and
// 8 steps, then times the full recovery stack (wal_codec prefix decode ->
// Db::Recover -> LogCapture::CatchUp -> ViewManager::Recover) against the
// clean log and against a 97% torn-tail cut, and finally drains the
// recovered service to the frontier to count how many propagation steps the
// crash actually cost. replay_ms times Db::Recover alone on the clean log:
// the base-table replay share of recover_ms.

#include <cstddef>

#include "bench_util.h"
#include "harness/crash_harness.h"
#include "ivm/maintenance.h"
#include "storage/wal_codec.h"

namespace rollview {
namespace bench {
namespace {

constexpr int kRounds = 10;
constexpr size_t kTxnsPerRound = 20;

struct RowResult {
  uint64_t cadence = 0;
  double wal_mb = 0;          // encoded log size at quiescence
  uint64_t checkpoints = 0;   // kViewCheckpoint records in the log
  double ckpt_mb = 0;         // bytes those checkpoints contribute
  double recover_ms = 0;      // clean full-log recovery
  double replay_ms = 0;       // of which Db::Recover (base-table replay)
  uint64_t rows_restored = 0; // checkpoint rows + replayed appends
  double recover_torn_ms = 0; // recovery from a 97% tail cut
  uint64_t rows_discarded = 0;// mid-flight rows cancelled by omission (torn)
  uint64_t resume_steps = 0;  // steps to re-reach the frontier after the cut
  double resume_ms = 0;
  // Scraped from the resumed service at quiescence; JSON rows flow through
  // the shared RegistryRowEmitter.
  obs::MetricsSnapshot snapshot;
};

RowResult RunCadence(uint64_t cadence) {
  CaptureOptions copts;
  copts.truncate_wal = false;  // the log IS the durable state
  Db db;
  LogCapture capture(&db, copts);
  ViewManager views(&db, &capture);

  TwoTableWorkload workload = ValueOrDie(
      TwoTableWorkload::Create(&db, /*r_rows=*/2000, /*s_rows=*/500,
                               /*join_domain=*/128, /*seed=*/7),
      "workload");
  capture.CatchUp();
  View* view = ValueOrDie(views.CreateView("V", workload.ViewDef()), "view");
  CheckOk(views.Materialize(view), "materialize");

  MaintenanceService::Options mopts;
  mopts.checkpoint_every_steps = cadence;
  mopts.target_rows_per_query = 16;
  mopts.apply_continuously = true;
  // Prune applied delta rows so a checkpoint snapshots only the retained
  // tail; without pruning every checkpoint would carry the full delta and
  // the cadence could not shrink the restored state.
  mopts.prune_view_delta = true;
  MaintenanceService service(&views, view, mopts);

  UpdateStream r_stream(&db, workload.RStream(1, 100), 100);
  UpdateStream s_stream(&db, workload.SStream(2, 101), 101);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kTxnsPerRound; ++i) {
      CheckOk(r_stream.RunTransaction(), "R update");
      if (i % 2 == 0) CheckOk(s_stream.RunTransaction(), "S update");
    }
    capture.CatchUp();
    CheckOk(service.Drain(db.stable_csn()), "drain");
  }

  RowResult out;
  out.cadence = cadence;
  std::string encoded = SnapshotEncodedWal(&db);
  out.wal_mb = static_cast<double>(encoded.size()) / (1024.0 * 1024.0);

  std::vector<WalRecord> all;
  db.wal()->ReadFrom(0, static_cast<size_t>(-1), &all);
  size_t ckpt_bytes = 0;
  for (const WalRecord& rec : all) {
    if (rec.kind == WalRecord::Kind::kViewCheckpoint) {
      out.checkpoints++;
      if (rec.blob != nullptr) ckpt_bytes += rec.blob->size();
    }
  }
  out.ckpt_mb = static_cast<double>(ckpt_bytes) / (1024.0 * 1024.0);

  std::vector<ViewDefSpec> defs = {{"V", workload.ViewDef()}};

  // Base-table replay alone: Db::Recover over the decoded clean log.
  {
    WalPrefix prefix = DecodeWalPrefix(encoded);
    Stopwatch timer;
    std::unique_ptr<Db> replayed =
        ValueOrDie(Db::Recover(prefix.records), "base replay");
    out.replay_ms = timer.ElapsedMillis();
  }

  // Clean full-log recovery: everything durable is reconstructed.
  {
    Stopwatch timer;
    RecoveredSystem sys =
        ValueOrDie(CrashAndRecover(encoded, defs), "clean recovery");
    out.recover_ms = timer.ElapsedMillis();
    CheckOk(sys.report.views_recovered == 1
                ? Status::OK()
                : Status::Internal("view not recovered"),
            "clean recovery report");
    out.rows_restored = sys.report.delta_rows_restored;
  }

  // Torn-tail recovery: cut at 97% of the log (inside the maintenance
  // suffix), recover, then resume maintenance to the recovered frontier and
  // count the steps the crash cost at this cadence.
  {
    CrashSpec spec;
    spec.keep_bytes = encoded.size() * 97 / 100;
    std::string damaged = ApplyCrashSpec(encoded, spec);
    Stopwatch timer;
    RecoveredSystem sys =
        ValueOrDie(CrashAndRecover(damaged, defs), "torn recovery");
    out.recover_torn_ms = timer.ElapsedMillis();
    out.rows_discarded = sys.report.rows_discarded;

    View* rv = sys.views->Find("V");
    CheckOk(rv != nullptr ? Status::OK()
                          : Status::Internal("view missing after torn cut"),
            "torn recovery view");
    MaintenanceService::Options ropts;
    ropts.checkpoint_every_steps = cadence;
    ropts.target_rows_per_query = 16;
    ropts.apply_continuously = true;
    ropts.prune_view_delta = false;
    // Registry before the service so it outlives the service's
    // deregistration in ~MaintenanceService.
    obs::MetricsRegistry registry;
    MaintenanceService resumed(sys.views.get(), rv, ropts);
    resumed.RegisterMetrics(&registry);
    Stopwatch resume_timer;
    CheckOk(resumed.Drain(sys.db->stable_csn()), "resume drain");
    out.resume_ms = resume_timer.ElapsedMillis();
    out.snapshot = registry.Snapshot();
    out.resume_steps = out.snapshot.CounterValue(
        "rollview_step_total",
        {{"view", "V"}, {"driver", "propagate"}, {"outcome", "ok"}});
  }
  return out;
}

void Main() {
  Banner("E10: bench_recovery",
         "Restart latency vs checkpoint cadence: frequent checkpoints fatten "
         "the WAL but bound the suffix recovery replays, so recovery time "
         "falls as the cadence tightens while log volume rises.");

  TablePrinter table({"cadence", "wal_mb", "ckpts", "ckpt_mb", "recover_ms",
                      "replay_ms", "restored", "torn_ms", "discarded",
                      "resume_steps", "resume_ms"},
                     13);
  table.PrintHeader();
  JsonReport report("recovery");
  for (uint64_t cadence : {uint64_t{0}, uint64_t{128}, uint64_t{32},
                           uint64_t{8}}) {
    RowResult r = RunCadence(cadence);
    table.PrintRow({FmtInt(r.cadence), Fmt(r.wal_mb, 2),
                    FmtInt(r.checkpoints), Fmt(r.ckpt_mb, 2),
                    Fmt(r.recover_ms, 1), Fmt(r.replay_ms, 1),
                    FmtInt(r.rows_restored),
                    Fmt(r.recover_torn_ms, 1), FmtInt(r.rows_discarded),
                    FmtInt(r.resume_steps), Fmt(r.resume_ms, 1)});
    report.BeginRow();
    RegistryRowEmitter emit(&report, &r.snapshot);
    emit.Int("checkpoint_every_steps", r.cadence);
    emit.Num("wal_mb", r.wal_mb, 4);
    emit.Int("checkpoints", r.checkpoints);
    emit.Num("checkpoint_mb", r.ckpt_mb, 4);
    emit.Num("recover_full_ms", r.recover_ms, 3);
    emit.Num("replay_ms", r.replay_ms, 3);
    emit.Int("delta_rows_restored", r.rows_restored);
    emit.Num("recover_torn_ms", r.recover_torn_ms, 3);
    emit.Int("rows_discarded", r.rows_discarded);
    emit.Counter(
        "resume_steps", "rollview_step_total",
        {{"view", "V"}, {"driver", "propagate"}, {"outcome", "ok"}});
    emit.Num("resume_ms", r.resume_ms, 3);
  }
  report.Write();
  std::printf(
      "\nShape: cadence 0 leaves only the Materialize-time checkpoint, so\n"
      "view recovery restores the maximum delta state (max restored rows);\n"
      "tightening the cadence to 8 steps shrinks the restored view state\n"
      "~8x (newer checkpoint + pruned delta) at the price of log volume\n"
      "(wal_mb and ckpt_mb grow). Base-table replay (replay_ms) is a small\n"
      "share of recover_ms; most of it is view recovery and log decode,\n"
      "which grow with the checkpoint bytes in the log, so the wall-clock\n"
      "win is muted here -- in a system with persistent base tables the\n"
      "restored-rows column is the recovery cost. The torn-tail cut\n"
      "exercises idempotent resume: rows of steps without a durable cursor\n"
      "are discarded, and the resumed service re-propagates only strips\n"
      "past the recovered cursors (resume_steps stays a handful at every\n"
      "cadence).\n");
}

}  // namespace
}  // namespace bench
}  // namespace rollview

int main() {
  rollview::bench::Main();
  return 0;
}
