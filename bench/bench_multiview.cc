// E8 -- maintenance cost as the number of views grows (paper Sec. 1: "as
// the number of views to be maintained increases, this problem becomes
// worse" -- for the synchronous approach).
//
// k views over the same two base tables, concurrent paced updaters.
//   sync    -- each view refreshed atomically in turn (k long transactions
//              per refresh round, each S-locking the base tables)
//   rolling -- one MaintenanceService per view, all propagating
//              concurrently in small transactions
//
// The synchronous strategy's updater tail grows with k (more and longer
// lock windows); rolling's stays flat because every transaction stays
// small regardless of k.

// E13 -- partition scaling: the same single-view backlog drained by 1, 2,
// and 4 hash-partition strips (ivm/parallel_rolling.h). Each strip keeps the
// paper's small-interval contract (the per-query row target is per strip),
// so partitioning multiplies rows retired per barrier round while each
// strip's compensation scans only its own slice of the deferred querylists.
// The engine runs on the file-backed WAL, so every propagation commit waits
// for a real group-commit fsync; concurrent strips share those syncs.

#include <filesystem>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness/worker.h"
#include "ivm/maintenance.h"
#include "ivm/shared_propagate.h"
#include "workload/update_stream.h"

namespace rollview {
namespace bench {
namespace {

struct RowResult {
  uint64_t upd_txns = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
  uint64_t lockwait_ms = 0;
  uint64_t total_queries = 0;
};

RowResult RunMode(const std::string& mode, size_t num_views) {
  Env env;
  TwoTableWorkload workload = ValueOrDie(
      TwoTableWorkload::Create(&env.db, /*r_rows=*/20000, /*s_rows=*/6000,
                               /*join_domain=*/512, /*seed=*/4),
      "workload");
  env.capture.CatchUp();
  std::vector<View*> views_list;
  std::unique_ptr<SharedViewGroup> group;
  if (mode == "shared") {
    // One carrier, num_views selection variants (different rval cutoffs).
    group = ValueOrDie(
        SharedViewGroup::Create(&env.views, "carrier", workload.ViewDef()),
        "group");
    for (size_t i = 0; i < num_views; ++i) {
      SpjViewDef def = workload.ViewDef();
      def.selection = Expr::Compare(
          Expr::CmpOp::kGe, Expr::Column(2),
          Expr::Literal(Value(static_cast<int64_t>(i) << 60)));
      views_list.push_back(ValueOrDie(
          group->AddMember("V" + std::to_string(i), def), "member"));
    }
    CheckOk(group->MaterializeAll(), "materialize group");
  } else {
    for (size_t i = 0; i < num_views; ++i) {
      View* v = ValueOrDie(
          env.views.CreateView("V" + std::to_string(i), workload.ViewDef()),
          "view");
      CheckOk(env.views.Materialize(v), "materialize");
      views_list.push_back(v);
    }
  }
  env.capture.Start();
  env.db.lock_manager()->ResetStats();

  UpdateStream u1(&env.db, workload.RStream(1, 71), 71);
  UpdateStream u2(&env.db, workload.SStream(2, 72), 72);
  Worker::Options paced;
  paced.target_ops_per_sec = 300;
  Worker w1([&u1] { return u1.RunTransaction(); }, paced);
  Worker w2([&u2] { return u2.RunTransaction(); }, paced);

  std::vector<std::unique_ptr<MaintenanceService>> services;
  std::unique_ptr<Worker> sync_worker;
  std::vector<std::unique_ptr<SyncRefresher>> sync_refreshers;

  std::unique_ptr<Worker> shared_worker;
  if (mode == "shared") {
    shared_worker = std::make_unique<Worker>(
        [&group]() -> Status {
          Result<bool> r = group->Step();
          if (!r.ok()) return r.status();
          if (!r.value()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Status::OK();
        },
        Worker::Options{.name = "shared"});
    shared_worker->Start();
  } else if (mode == "rolling") {
    for (View* v : views_list) {
      MaintenanceService::Options mo;
      mo.target_rows_per_query = 256;
      services.push_back(
          std::make_unique<MaintenanceService>(&env.views, v, mo));
      services.back()->Start();
    }
  } else {
    for (View* v : views_list) {
      sync_refreshers.push_back(
          std::make_unique<SyncRefresher>(&env.views, v));
    }
    sync_worker = std::make_unique<Worker>(
        [&sync_refreshers]() -> Status {
          for (auto& r : sync_refreshers) {
            ROLLVIEW_RETURN_NOT_OK(r->RefreshEq1().status());
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          return Status::OK();
        },
        Worker::Options{.name = "sync-refresh"});
    sync_worker->Start();
  }

  w1.Start();
  w2.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  CheckOk(w1.Join(), "u1");
  CheckOk(w2.Join(), "u2");
  if (sync_worker) CheckOk(sync_worker->Join(), "sync");
  uint64_t total_queries = 0;
  for (auto& s : services) {
    Csn target = env.db.stable_csn();
    CheckOk(env.capture.WaitForCsn(target), "capture");
    CheckOk(s->Drain(target), "drain");
    CheckOk(s->Stop(), "stop");
    total_queries += s->runner_stats().queries;
  }
  if (shared_worker) {
    Csn target = env.db.stable_csn();
    CheckOk(env.capture.WaitForCsn(target), "capture");
    CheckOk(shared_worker->Join(), "shared");
    CheckOk(group->RunUntil(target), "drain group");
    total_queries += group->propagator()->runner()->stats().queries;
  }
  for (auto& r : sync_refreshers) total_queries += r->stats().queries;
  env.capture.Stop();

  RowResult out;
  out.upd_txns = w1.iterations() + w2.iterations();
  // Pooled-population percentiles via reservoir merge, not the old
  // max-of-per-worker-percentiles upper bound.
  LatencyHistogram merged;
  merged.MergeFrom(w1.latency());
  merged.MergeFrom(w2.latency());
  out.p99_us = merged.Percentile(0.99) / 1000;
  out.max_us = merged.max_nanos() / 1000;
  out.lockwait_ms = env.db.lock_manager()->GetStats().wait_nanos / 1000000;
  out.total_queries = total_queries;
  return out;
}

struct PartitionArmResult {
  double wall_ms = 0;
  uint64_t delta_rows = 0;
  obs::MetricsSnapshot snapshot;
};

// One E13 arm: build an identical seeded backlog, then drain it with
// `partitions` strips and no competing foreground load, so the wall clock
// isolates propagation throughput. Each arm gets a fresh file-backed WAL:
// propagation steps are small transactions, each paying a group-commit
// fsync, and concurrent strips can share one.
PartitionArmResult RunPartitionArm(uint32_t partitions) {
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() /
      ("bench_multiview_e13_p" + std::to_string(partitions));
  std::filesystem::remove_all(wal_dir);
  PartitionArmResult out;
  {  // the engine must be gone before its WAL directory is removed
    DbOptions dbo;
    dbo.wal_dir = wal_dir.string();
    Env env(dbo);
    TwoTableWorkload workload = ValueOrDie(
        TwoTableWorkload::Create(&env.db, /*r_rows=*/4000, /*s_rows=*/2000,
                                 /*join_domain=*/512, /*seed=*/13),
        "workload");
    env.capture.CatchUp();
    View* view = ValueOrDie(env.views.CreateView("V", workload.ViewDef()),
                            "view");
    CheckOk(env.views.Materialize(view), "materialize");

    UpdateStream u1(&env.db, workload.RStream(1, 131), 131);
    UpdateStream u2(&env.db, workload.SStream(2, 132), 132);
    CheckOk(u1.RunTransactions(500), "backlog R");
    CheckOk(u2.RunTransactions(300), "backlog S");
    env.capture.CatchUp();

    MaintenanceService::Options mo;
    mo.target_rows_per_query = 16;  // the small-interval contract, per strip
    mo.propagate_partitions = partitions;
    // Outlives the service: the service drops its registrations on teardown.
    obs::MetricsRegistry registry;
    MaintenanceService service(&env.views, view, mo);
    if (partitions > 1 && service.propagate_partitions() != partitions) {
      CheckOk(Status::Internal("partition arm fell back to one strip"), "arm");
    }
    service.RegisterMetrics(&registry);

    Csn target = env.db.stable_csn();
    Stopwatch sw;
    CheckOk(service.Drain(target), "drain");
    out.wall_ms = sw.ElapsedMillis();
    out.delta_rows = service.runner_stats().rows_appended;
    out.snapshot = registry.Snapshot();
  }
  std::filesystem::remove_all(wal_dir);
  return out;
}

void PartitionScalingArm(JsonReport* report) {
  std::printf("\n");
  Banner("E13: bench_multiview --partition-scaling",
         "Propagation throughput of one backlog drained by k disjoint "
         "hash-partition strips on a shared worker pool, on the file-backed "
         "WAL (strips share group-commit fsyncs).");
  // kReps repetitions per partition count, interleaved across the counts
  // in alternating order so host drift (fsync latency, other tenants)
  // spreads over every arm instead of biasing the ones that run later.
  // Rows carry the median, min and max wall time; the registry counters
  // are the first repetition's.
  constexpr int kReps = 5;
  const std::vector<uint32_t> counts = {1u, 2u, 4u};
  const size_t n = counts.size();
  std::vector<std::vector<double>> wall_ms(n);
  std::vector<PartitionArmResult> first(n);
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t pos = 0; pos < n; ++pos) {
      const size_t i = rep % 2 == 0 ? pos : n - 1 - pos;
      PartitionArmResult r = RunPartitionArm(counts[i]);
      wall_ms[i].push_back(r.wall_ms);
      if (rep == 0) first[i] = std::move(r);
    }
  }

  TablePrinter table({"partitions", "wall_ms", "min_ms", "max_ms",
                      "delta_rows", "rows_per_s", "speedup"},
                     13);
  table.PrintHeader();
  RegistryRowEmitter emitter(report, nullptr);
  const double serial_ms = SpreadOf(wall_ms[0]).median;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = counts[i];
    const PartitionArmResult& r = first[i];
    const Spread wall = SpreadOf(wall_ms[i]);
    double rows_per_s =
        wall.median > 0
            ? 1000.0 * static_cast<double>(r.delta_rows) / wall.median
            : 0;
    double speedup = wall.median > 0 ? serial_ms / wall.median : 0;
    table.PrintRow({FmtInt(p), Fmt(wall.median, 1), Fmt(wall.min, 1),
                    Fmt(wall.max, 1), FmtInt(r.delta_rows),
                    Fmt(rows_per_s, 0), Fmt(speedup, 2)});
    emitter.set_snapshot(&r.snapshot);
    report->BeginRow();
    emitter.Str("experiment", "E13");
    emitter.Int("partitions", p);
    emitter.Str("wal", "file");
    emitter.Int("reps", kReps);
    emitter.Num("wall_ms", wall.median, 1);
    emitter.Num("wall_ms_min", wall.min, 1);
    emitter.Num("wall_ms_max", wall.max, 1);
    emitter.Num("rows_per_s", rows_per_s, 0);
    emitter.Num("speedup_vs_serial", speedup, 3);
    obs::Labels lv{{"view", "V"}};
    emitter.Gauge("partitions_gauge", "rollview_view_partitions", lv);
    emitter.Counter("fwd_queries", "rollview_queries_total",
                    {{"view", "V"}, {"kind", "forward"}});
    emitter.Counter("comp_queries", "rollview_queries_total",
                    {{"view", "V"}, {"kind", "compensation"}});
    emitter.Counter("delta_rows", "rollview_view_delta_rows_total", lv);
    emitter.Counter("steps_ok", "rollview_step_total",
                    {{"view", "V"},
                     {"driver", "propagate"},
                     {"outcome", "ok"}});
  }
  std::printf(
      "\nShape: every propagation step is a small transaction whose commit\n"
      "pays a log force; one strip pays them end to end, while k\n"
      "partition strips overlap theirs (group commit), so wall-clock drain\n"
      "throughput scales with the strip count until the join CPU or the\n"
      "shared commit path saturates. speedup is the ratio of medians.\n");
}

}  // namespace

void Main() {
  Banner("E8: bench_multiview",
         "Updater interference vs number of maintained views: k atomic "
         "refreshes per round vs k independent rolling maintainers.");
  TablePrinter table({"mode", "views", "upd_txns", "p99_us", "max_ms",
                      "lockwait_ms", "queries"},
                     13);
  table.PrintHeader();
  for (size_t k : {1u, 2u, 4u}) {
    for (const std::string mode : {"sync", "rolling", "shared"}) {
      RowResult r = RunMode(mode, k);
      table.PrintRow({mode, FmtInt(k), FmtInt(r.upd_txns), FmtInt(r.p99_us),
                      Fmt(r.max_us / 1000.0, 1), FmtInt(r.lockwait_ms),
                      FmtInt(r.total_queries)});
    }
  }
  std::printf(
      "\nShape: synchronous refresh cost (updater tail, lock waits) grows\n"
      "with the view count; independent rolling maintainers add queries\n"
      "linearly in k but each stays small, so the updater tail is flat;\n"
      "shared propagation (one carrier stream, k selection variants) keeps\n"
      "the query count flat in k as well.\n");

  JsonReport report("multiview");
  PartitionScalingArm(&report);
  report.Write();
}

}  // namespace bench
}  // namespace rollview

int main() {
  rollview::bench::Main();
  return 0;
}
