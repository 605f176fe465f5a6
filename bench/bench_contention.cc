// E3 -- the long-transaction problem (paper Sec. 1, 3.2).
//
// "The [refresh] transaction may be long-lived, resulting in contention
//  between the refresh process and concurrent updates to the underlying
//  tables, and between the refresh operation and concurrent reads of the
//  materialized view."
//
// Concurrent paced updaters + MV readers run for a fixed wall-clock window
// while the view is maintained by one of:
//   none       -- no maintenance (updater baseline)
//   full       -- periodic atomic full recomputation
//   sync-eq1   -- periodic atomic incremental refresh (Eq. 1, Figure 1)
//   propagate  -- continuous Figure 5 propagation + apply
//   rolling    -- continuous Figure 10 rolling propagation + apply
//
// Reported: achieved updater txns, updater p50/p99/max latency, total lock
// wait, deadlocks, reader p99, and the MV's final staleness (stable CSN
// minus MV CSN).
//
// E12 rides on the same binary: a fixed-vs-adaptive MaintenanceService
// comparison under an *antagonist* OLTP load (paced single-table updaters
// plus cross-table transactions that interleave lock orders with the
// propagation strips, manufacturing real maintenance-vs-OLTP deadlock
// cycles). The fixed arm runs the open-loop rows-per-query target; the
// adaptive arm runs the AIMD IntervalController with a time-domain
// freshness SLO and live shedding/backpressure wiring. Claim: the adaptive
// arm volunteers fewer maintenance deadlock victims and keeps OLTP p99
// lock waits no worse. The arms run interleaved for kReps repetitions and
// the JSON rows carry per-field medians.
//
// Usage:
//   bench_contention                     full E3 + E12 sweep, writes
//                                        BENCH_contention.json
//   bench_contention --smoke [baseline]  E12 arms only, one short rep each;
//                                        structural assertions + baseline
//                                        sanity (the perf-smoke ctest label)

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench_util.h"
#include "harness/mv_reader.h"
#include "harness/worker.h"
#include "ivm/maintenance.h"
#include "ivm/snapshot_propagate.h"
#include "obs/freshness.h"

namespace rollview {
namespace bench {
namespace {

constexpr int kRunMillis = 1500;
constexpr double kUpdaterRate = 250.0;  // txns/sec per updater
constexpr int kUpdaters = 3;

struct RowResult {
  std::string mode;
  uint64_t updater_txns = 0;
  uint64_t p50_us = 0, p99_us = 0, max_us = 0;
  uint64_t lock_wait_ms = 0;
  uint64_t reader_p99_us = 0;
  uint64_t staleness = 0;
  uint64_t maint_queries = 0;
  // Lock-manager counters scraped at quiescence; JSON rows flow through
  // the shared RegistryRowEmitter.
  obs::MetricsSnapshot snapshot;
};

RowResult RunMode(const std::string& mode) {
  Env env;
  TwoTableWorkload workload = ValueOrDie(
      TwoTableWorkload::Create(&env.db, /*r_rows=*/30000, /*s_rows=*/8000,
                               /*join_domain=*/1024, /*seed=*/5),
      "workload");
  env.capture.CatchUp();
  View* view =
      ValueOrDie(env.views.CreateView("V", workload.ViewDef()), "view");
  CheckOk(env.views.Materialize(view), "materialize");
  env.capture.Start();
  env.db.lock_manager()->ResetStats();

  std::vector<std::unique_ptr<UpdateStream>> streams;
  std::vector<std::unique_ptr<Worker>> updaters;
  for (int i = 0; i < kUpdaters; ++i) {
    streams.push_back(std::make_unique<UpdateStream>(
        &env.db,
        i == 0 ? workload.SStream(i + 1, 100 + i)
               : workload.RStream(i + 1, 100 + i),
        100 + i));
    UpdateStream* s = streams.back().get();
    Worker::Options opts;
    opts.target_ops_per_sec = kUpdaterRate;
    updaters.push_back(
        std::make_unique<Worker>([s] { return s->RunTransaction(); }, opts));
  }

  MvReader reader(&env.views, view);
  Worker::Options reader_opts;
  reader_opts.target_ops_per_sec = 200;
  Worker read_worker([&reader] { return reader.ReadOnce(); }, reader_opts);

  // Staleness sampler: stable CSN minus MV CSN, every 20 ms.
  Counter staleness_samples;
  Counter staleness_sum;
  Worker staleness_worker(
      [&]() -> Status {
        staleness_sum.Add(env.db.stable_csn() - view->mv->csn());
        staleness_samples.Add();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Status::OK();
      },
      Worker::Options{.name = "staleness"});

  // Maintenance actors.
  std::unique_ptr<SyncRefresher> refresher;
  std::unique_ptr<Worker> refresh_worker;
  std::unique_ptr<Propagator> plain;
  std::unique_ptr<RollingPropagator> rolling;
  std::unique_ptr<SnapshotPropagator> snap;
  std::unique_ptr<Applier> applier;
  std::unique_ptr<Worker> maintain_worker;

  if (mode == "full" || mode == "sync-eq1") {
    refresher = std::make_unique<SyncRefresher>(&env.views, view);
    SyncRefresher* r = refresher.get();
    bool full = (mode == "full");
    refresh_worker = std::make_unique<Worker>(
        [r, full]() -> Status {
          Status s = full ? r->RefreshFull().status()
                          : r->RefreshEq1().status();
          if (!s.ok()) return s;
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          return Status::OK();
        },
        Worker::Options{.name = "refresh"});
  } else if (mode == "propagate" || mode == "rolling" ||
             mode == "mvcc-snap") {
    applier = std::make_unique<Applier>(&env.views, view,
                                        ApplierOptions{.prune_view_delta = true});
    if (mode == "propagate") {
      plain = std::make_unique<Propagator>(
          &env.views, view, std::make_unique<TargetRowsInterval>(256));
    } else if (mode == "mvcc-snap") {
      snap = std::make_unique<SnapshotPropagator>(
          &env.views, view, std::make_unique<TargetRowsInterval>(256));
    } else {
      std::vector<std::unique_ptr<IntervalPolicy>> ps;
      ps.push_back(std::make_unique<TargetRowsInterval>(256));
      ps.push_back(std::make_unique<TargetRowsInterval>(64));
      rolling = std::make_unique<RollingPropagator>(&env.views, view,
                                                    std::move(ps));
    }
    maintain_worker = std::make_unique<Worker>(
        [&]() -> Status {
          bool advanced = false;
          if (plain != nullptr) {
            Result<bool> r = plain->Step();
            if (!r.ok()) return r.status();
            advanced = r.value();
          } else if (snap != nullptr) {
            Result<bool> r = snap->Step();
            if (!r.ok()) return r.status();
            advanced = r.value();
          } else {
            Result<bool> r = rolling->Step();
            if (!r.ok()) return r.status();
            advanced = r.value();
          }
          Csn hwm = view->high_water_mark();
          if (hwm > view->mv->csn()) {
            ROLLVIEW_RETURN_NOT_OK(applier->RollTo(hwm));
          }
          if (!advanced) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Status::OK();
        },
        Worker::Options{.name = "maintain"});
  }

  for (auto& u : updaters) u->Start();
  read_worker.Start();
  staleness_worker.Start();
  if (refresh_worker) refresh_worker->Start();
  if (maintain_worker) maintain_worker->Start();

  std::this_thread::sleep_for(std::chrono::milliseconds(kRunMillis));

  for (auto& u : updaters) CheckOk(u->Join(), "updater");
  if (refresh_worker) CheckOk(refresh_worker->Join(), "refresher");
  if (maintain_worker) CheckOk(maintain_worker->Join(), "maintainer");
  CheckOk(read_worker.Join(), "reader");
  CheckOk(staleness_worker.Join(), "staleness");
  env.capture.Stop();

  RowResult out;
  out.mode = mode;
  // Pool the updaters' reservoirs and take real percentiles over the merged
  // population, instead of the old max-of-per-worker-percentiles upper
  // bound.
  LatencyHistogram updater_lat;
  for (auto& u : updaters) {
    out.updater_txns += u->iterations();
    updater_lat.MergeFrom(u->latency());
  }
  out.p50_us = updater_lat.Percentile(0.50) / 1000;
  out.p99_us = updater_lat.Percentile(0.99) / 1000;
  out.max_us = updater_lat.max_nanos() / 1000;
  obs::MetricsRegistry registry;
  env.db.lock_manager()->RegisterMetrics(&registry, &registry);
  out.snapshot = registry.Snapshot();
  out.lock_wait_ms =
      out.snapshot.CounterTotal("rollview_lock_wait_nanos_total") / 1000000;
  out.reader_p99_us = read_worker.latency().Percentile(0.99) / 1000;
  out.staleness = staleness_samples.value() == 0
                      ? 0
                      : staleness_sum.value() / staleness_samples.value();
  if (refresher) out.maint_queries = refresher->stats().queries;
  if (plain) out.maint_queries = plain->runner()->stats().queries;
  if (rolling) out.maint_queries = rolling->runner()->stats().queries;
  if (snap) out.maint_queries = snap->stats().exec.queries;
  return out;
}

// --- E12: fixed vs adaptive MaintenanceService under antagonist load ---

// Time-domain staleness target of the adaptive arm's freshness SLO.
constexpr uint64_t kSloTargetNanos = 1500ull * 1000 * 1000;
constexpr size_t kFixedTargetRows = 1024;
constexpr int kReps = 5;

// One arm's run. Every count is scraped from the metrics registry after
// the drain (oltp_p99_wait_us from the per-class lock-wait histogram);
// avg_stale and avg_stale_ms come from a 20 ms sampler.
struct SvcResult {
  std::string arm;
  uint64_t updater_txns = 0;
  uint64_t updater_retries = 0;   // OLTP aborts absorbed by stream retry
  uint64_t oltp_p99_wait_us = 0;
  uint64_t oltp_waits = 0;
  uint64_t maint_victims = 0;     // maintenance deadlock-victim aborts
  uint64_t maint_timeouts = 0;
  uint64_t transients = 0;        // supervisor-absorbed step failures
  uint64_t queries = 0;
  uint64_t avg_stale = 0;         // CSNs behind the stable CSN
  double avg_stale_ms = 0;        // age of the oldest invisible commit
  uint64_t target_end = 0;
  uint64_t shrinks = 0;
  uint64_t grows = 0;
  uint64_t sheds = 0;
  double drain_ms = 0;
  std::string outcome;
};

SvcResult RunServiceArm(bool adaptive, int run_millis) {
  Env env;
  // A star view (fact |><| dim0 |><| dim1): every propagation strip's
  // forward query S-locks *two* base tables, so a cross-order OLTP
  // transaction can genuinely deadlock against maintenance. (A two-table
  // chain cannot: each strip locks exactly one base table.)
  StarSchemaConfig scfg;
  scfg.num_dims = 2;
  scfg.dim_rows = 2000;
  scfg.fact_rows = 20000;
  StarSchemaWorkload workload =
      ValueOrDie(StarSchemaWorkload::Create(&env.db, scfg, /*seed=*/5),
                 "workload");
  env.capture.CatchUp();
  View* view =
      ValueOrDie(env.views.CreateView("V", workload.ViewDef()), "view");
  CheckOk(env.views.Materialize(view), "materialize");
  env.capture.Start();
  env.db.lock_manager()->ResetStats();

  // Both arms carry the same freshness instrumentation; only the adaptive
  // arm sheds on it.
  obs::FreshnessTracker tracker;
  env.db.SetFreshnessTracker(&tracker);

  MaintenanceService::Options mopts;
  mopts.freshness = &tracker;
  mopts.runner.max_retries = 0;  // the supervisor owns the retry policy
  mopts.runner.capture_wait_timeout = std::chrono::milliseconds(50);
  mopts.backoff.initial = std::chrono::microseconds(100);
  mopts.backoff.max = std::chrono::microseconds(5000);
  if (adaptive) {
    mopts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
    mopts.controller.initial_target_rows = kFixedTargetRows;
    mopts.controller.min_target_rows = 32;
    mopts.controller.max_target_rows = 4096;
    mopts.freshness_slo.target_staleness_nanos = kSloTargetNanos;
    // The antagonists never stop, so a fast pause decay just oscillates:
    // calm windows bleed the pace off and the next strip re-collides. Keep
    // the pause sticky and let the freshness SLO bound the staleness cost
    // instead.
    mopts.controller.pause_max = std::chrono::microseconds(50000);
    mopts.controller.pause_decay = 0.9;
  } else {
    mopts.target_rows_per_query = kFixedTargetRows;
  }
  // One registry carries both the service's and the lock manager's metrics;
  // it precedes the service so it survives the service's deregistration.
  obs::MetricsRegistry registry;
  MaintenanceService service(&env.views, view, mopts);
  service.RegisterMetrics(&registry);
  env.db.lock_manager()->RegisterMetrics(&registry, &registry);
  MaintenanceService* svc = &service;

  // Antagonists: the paced single-table updaters of E3, plus cross-table
  // writers whose transactions take R and S intent locks in alternating
  // order. Against a propagation strip holding table S locks across both
  // relations this interleaving forms genuine waits-for cycles, so the
  // deadlock detector must pick victims -- the metric under test.
  std::vector<std::unique_ptr<UpdateStream>> streams;
  std::vector<std::unique_ptr<Worker>> updaters;
  for (int i = 0; i < kUpdaters; ++i) {
    // Two fact writers (volume -> backlog and staleness pressure) and one
    // dimension churner (its delta strips S-lock fact + the other dim).
    // Fat fact transactions keep the captured backlog above the fixed
    // arm's row target, so the open-loop arm really does run 1024-row
    // strips while the adaptive arm shrinks -- the knob under test.
    UpdateStreamConfig cfg = i < 2 ? workload.FactStream(i + 1, 100 + i)
                                   : workload.DimStream(0, i + 1, 100 + i);
    if (i < 2) cfg.ops_per_txn = 24;
    streams.push_back(
        std::make_unique<UpdateStream>(&env.db, std::move(cfg), 100 + i));
    UpdateStream* s = streams.back().get();
    Worker::Options opts;
    opts.name = "updater";
    opts.target_ops_per_sec = kUpdaterRate;
    // The graceful-degradation loop: while the adaptive arm sheds, update
    // intake slows so the backlog can drain. A no-op in the fixed arm.
    opts.backpressure = [svc] { return svc->shedding(); };
    opts.backpressure_delay = std::chrono::microseconds(500);
    updaters.push_back(
        std::make_unique<Worker>([s] { return s->RunTransaction(); }, opts));
  }

  // Strips lock base terms in table order: a fact strip takes S(dim0) then
  // S(dim1); a dim_i strip takes S(fact) then S(dim_{1-i}). A cross writer
  // that intent-locks a *later* table first and then wants an *earlier* one
  // closes a waits-for cycle with whichever strip is mid-acquisition, so
  // rotate through the three cycle-capable orders.
  std::atomic<int64_t> cross_key{9'000'000'000'000LL};  // clear of streams
  std::atomic<uint64_t> cross_flip{0};
  std::atomic<uint64_t> cross_retries{0};
  auto make_row = [&workload](TableId table, int64_t k) {
    if (table == workload.fact) {
      return Tuple{Value(k), Value(int64_t{0}), Value(int64_t{0}),
                   Value(1.0)};
    }
    return Tuple{Value(k), Value(k), Value(std::string("cross"))};
  };
  auto cross_body = [&env, &workload, &cross_key, &cross_flip,
                     &cross_retries, make_row]() -> Status {
    uint64_t pick = cross_flip.fetch_add(1, std::memory_order_relaxed) % 3;
    TableId first = pick == 2 ? workload.dims[0] : workload.dims[1];
    TableId second = pick == 0 ? workload.dims[0] : workload.fact;
    for (int attempt = 0; attempt < 32; ++attempt) {
      std::unique_ptr<Txn> txn = env.db.Begin();
      int64_t k = cross_key.fetch_add(1, std::memory_order_relaxed);
      Status st = env.db.Insert(txn.get(), first, make_row(first, k));
      if (st.ok()) {
        // No think time: the collision window is how long maintenance
        // strips hold their base-table S locks -- the dial delta controls.
        st = env.db.Insert(txn.get(), second, make_row(second, k));
      }
      if (st.ok()) st = env.db.Commit(txn.get());
      if (st.ok()) return Status::OK();
      if (txn->state() == TxnState::kActive) env.db.Abort(txn.get()).ok();
      if (!(st.IsTxnAborted() || st.IsBusy())) return st;
      cross_retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(100) * attempt);
    }
    return Status::OK();  // hopelessly contended this round; try next beat
  };
  std::vector<std::unique_ptr<Worker>> cross_workers;
  for (int i = 0; i < 3; ++i) {
    Worker::Options opts;
    opts.name = "cross";
    opts.target_ops_per_sec = 200.0;
    opts.backpressure = [svc] { return svc->shedding(); };
    opts.backpressure_delay = std::chrono::microseconds(500);
    cross_workers.push_back(std::make_unique<Worker>(cross_body, opts));
  }

  // Staleness sampler, every 20 ms: stable CSN minus MV CSN, and the age
  // of the oldest commit the view does not show yet.
  Counter staleness_samples;
  Counter staleness_sum;
  Counter staleness_nanos_sum;
  Worker staleness_worker(
      [&]() -> Status {
        staleness_sum.Add(env.db.stable_csn() - view->mv->csn());
        staleness_nanos_sum.Add(service.freshness()->StalenessNanos());
        staleness_samples.Add();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Status::OK();
      },
      Worker::Options{.name = "staleness"});

  service.Start();
  for (auto& u : updaters) u->Start();
  for (auto& c : cross_workers) c->Start();
  staleness_worker.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(run_millis));
  for (auto& u : updaters) CheckOk(u->Join(), "updater");
  for (auto& c : cross_workers) CheckOk(c->Join(), "cross");
  CheckOk(staleness_worker.Join(), "staleness");

  // Liveness: the storm is over, the drivers must reach the frontier.
  Csn frontier = env.db.stable_csn();
  Stopwatch drain_timer;
  CheckOk(service.Drain(frontier), "drain");

  SvcResult out;
  out.arm = adaptive ? "adaptive-svc" : "fixed-svc";
  out.drain_ms = drain_timer.ElapsedMillis();
  for (auto& u : updaters) {
    out.updater_txns += u->iterations();
    out.updater_retries += u->transient_errors();
  }
  for (auto& s : streams) out.updater_retries += s->stats().aborts_retried;
  out.updater_retries += cross_retries.load();
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::Labels lv{{"view", "V"}};
  const obs::HistogramSummary* oltp_wait =
      snap.Histogram("rollview_lock_wait_latency", {{"class", "oltp"}});
  out.oltp_p99_wait_us = oltp_wait == nullptr ? 0 : oltp_wait->p99 / 1000;
  out.oltp_waits =
      snap.CounterValue("rollview_lock_waits_total", {{"class", "oltp"}});
  out.maint_victims = snap.CounterValue("rollview_lock_deadlock_victims_total",
                                        {{"class", "maintenance"}});
  out.maint_timeouts = snap.CounterValue("rollview_lock_timeouts_total",
                                         {{"class", "maintenance"}});
  for (const char* driver : {"propagate", "apply"}) {
    out.transients += snap.CounterValue(
        "rollview_step_total",
        {{"view", "V"}, {"driver", driver}, {"outcome", "transient_error"}});
  }
  out.queries = snap.CounterTotal("rollview_queries_total");
  const uint64_t samples = staleness_samples.value();
  out.avg_stale = samples == 0 ? 0 : staleness_sum.value() / samples;
  out.avg_stale_ms =
      samples == 0
          ? 0.0
          : static_cast<double>(staleness_nanos_sum.value()) / 1e6 / samples;
  out.target_end = static_cast<uint64_t>(
      snap.GaugeValue("rollview_view_target_rows", lv));
  // Fixed arm: the interval-event and SLO counters are simply absent, so
  // these lookups come back 0.
  for (const char* event : {"shrink", "transient_shrink"}) {
    out.shrinks += snap.CounterValue("rollview_interval_events_total",
                                     {{"view", "V"}, {"event", event}});
  }
  out.grows = snap.CounterValue("rollview_interval_events_total",
                                {{"view", "V"}, {"event", "grow"}});
  out.sheds = snap.CounterValue("rollview_slo_events_total",
                                {{"view", "V"}, {"event", "shed_entry"}});
  out.outcome = "clean";
  if (!service.last_error().ok()) out.outcome = "recovered";
  if (service.propagate_health() == DriverHealth::kFailed ||
      service.apply_health() == DriverHealth::kFailed ||
      (!service.last_error().ok() && !service.last_error().IsTransient())) {
    out.outcome = "FAILED";
  }
  CheckOk(service.Stop(), "stop");
  env.db.SetFreshnessTracker(nullptr);
  return out;
}

// Per-field medians over one arm's (non-empty) reps; the outcome is the
// worst seen.
SvcResult MedianOf(const std::vector<SvcResult>& reps) {
  SvcResult m;
  m.arm = reps.front().arm;
  auto med = [&reps](auto field) {
    std::vector<double> values;
    for (const SvcResult& r : reps) {
      values.push_back(static_cast<double>(r.*field));
    }
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  };
  auto imed = [&med](auto field) {
    return static_cast<uint64_t>(med(field) + 0.5);
  };
  m.updater_txns = imed(&SvcResult::updater_txns);
  m.updater_retries = imed(&SvcResult::updater_retries);
  m.oltp_p99_wait_us = imed(&SvcResult::oltp_p99_wait_us);
  m.oltp_waits = imed(&SvcResult::oltp_waits);
  m.maint_victims = imed(&SvcResult::maint_victims);
  m.maint_timeouts = imed(&SvcResult::maint_timeouts);
  m.transients = imed(&SvcResult::transients);
  m.queries = imed(&SvcResult::queries);
  m.avg_stale = imed(&SvcResult::avg_stale);
  m.avg_stale_ms = med(&SvcResult::avg_stale_ms);
  m.target_end = imed(&SvcResult::target_end);
  m.shrinks = imed(&SvcResult::shrinks);
  m.grows = imed(&SvcResult::grows);
  m.sheds = imed(&SvcResult::sheds);
  m.drain_ms = med(&SvcResult::drain_ms);
  auto severity = [](const std::string& outcome) {
    return outcome == "FAILED" ? 2 : outcome == "recovered" ? 1 : 0;
  };
  m.outcome = "clean";
  for (const SvcResult& r : reps) {
    if (severity(r.outcome) > severity(m.outcome)) m.outcome = r.outcome;
  }
  return m;
}

// Returns true when the committed baseline mentions both arms -- the
// counters here are timing-dependent, so the smoke check asserts the
// baseline's structure rather than exact values.
bool BaselineMentionsArms(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text.find("fixed-svc") != std::string::npos &&
         text.find("adaptive-svc") != std::string::npos;
}

}  // namespace

int RunE12(JsonReport* report, bool smoke) {
  Banner("E12: bench_contention (fixed vs adaptive)",
         "Open-loop vs AIMD interval control under an antagonist OLTP load "
         "with cross-order lock cycles: the adaptive arm volunteers fewer "
         "maintenance deadlock victims at no OLTP p99 cost, staleness "
         "within the SLO.");

  const int run_millis = smoke ? 500 : kRunMillis;
  const int reps = smoke ? 1 : kReps;
  TablePrinter table({"arm", "rep", "upd_txns", "retries", "oltp_p99w_us",
                      "victims", "m_timeouts", "transients", "queries",
                      "avg_stale", "stale_ms", "target_end", "sheds",
                      "outcome"},
                     13);
  table.PrintHeader();
  auto print = [&table](const SvcResult& r, const std::string& rep) {
    table.PrintRow({r.arm, rep, FmtInt(r.updater_txns),
                    FmtInt(r.updater_retries), FmtInt(r.oltp_p99_wait_us),
                    FmtInt(r.maint_victims), FmtInt(r.maint_timeouts),
                    FmtInt(r.transients), FmtInt(r.queries),
                    FmtInt(r.avg_stale), Fmt(r.avg_stale_ms, 1),
                    FmtInt(r.target_end), FmtInt(r.sheds), r.outcome});
  };
  // Interleaved reps, alternating which arm goes first, so host drift
  // lands on both arms alike.
  std::vector<SvcResult> runs[2];
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < 2; ++i) {
      const int arm = rep % 2 == 0 ? i : 1 - i;
      runs[arm].push_back(RunServiceArm(/*adaptive=*/arm == 1, run_millis));
      print(runs[arm].back(), std::to_string(rep));
    }
  }
  SvcResult rows[2] = {MedianOf(runs[0]), MedianOf(runs[1])};
  for (const SvcResult& r : rows) {
    print(r, "median");
    if (report == nullptr) continue;
    report->BeginRow();
    // Medians of registry-sourced values.
    report->MarkRegistrySerializer();
    report->Str("mode", r.arm);
    report->Int("reps", static_cast<uint64_t>(reps));
    report->Int("updater_txns", r.updater_txns);
    report->Int("updater_retries", r.updater_retries);
    report->Int("oltp_p99_wait_us", r.oltp_p99_wait_us);
    report->Int("oltp_waits", r.oltp_waits);
    report->Int("maint_victims", r.maint_victims);
    report->Int("maint_timeouts", r.maint_timeouts);
    report->Int("transients", r.transients);
    report->Int("queries", r.queries);
    report->Int("avg_stale", r.avg_stale);
    report->Num("avg_stale_ms", r.avg_stale_ms, 1);
    const bool adaptive = r.arm == "adaptive-svc";
    report->Num("slo_target_ms",
                adaptive ? static_cast<double>(kSloTargetNanos) / 1e6 : 0.0,
                1);
    report->Int("target_end", r.target_end);
    report->Int("shrinks", r.shrinks);
    report->Int("grows", r.grows);
    report->Int("sheds", r.sheds);
    report->Num("drain_ms", r.drain_ms, 3);
    report->Str("outcome", r.outcome);
  }

  const SvcResult& fixed = rows[0];
  const SvcResult& adaptive = rows[1];
  double victim_cut =
      fixed.maint_victims == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(adaptive.maint_victims) /
                               static_cast<double>(fixed.maint_victims));
  std::printf(
      "\nadaptive vs fixed (medians of %d): maintenance victim aborts %llu "
      "-> %llu (%.0f%% fewer), OLTP p99 lock wait %lluus -> %lluus, avg "
      "staleness %.1fms vs SLO target %.1fms, sheds %llu\n",
      reps, static_cast<unsigned long long>(fixed.maint_victims),
      static_cast<unsigned long long>(adaptive.maint_victims), victim_cut,
      static_cast<unsigned long long>(fixed.oltp_p99_wait_us),
      static_cast<unsigned long long>(adaptive.oltp_p99_wait_us),
      adaptive.avg_stale_ms, static_cast<double>(kSloTargetNanos) / 1e6,
      static_cast<unsigned long long>(adaptive.sheds));

  int failures = 0;
  // Structural assertions (timing-independent): no driver death in either
  // arm, the controller demonstrably ran the loop, and the adaptive target
  // respected its clamps. The >= 30% victim-abort headline lives in the
  // committed full-sweep baseline, where the run is long enough to be
  // stable; at smoke length it is printed, not asserted.
  for (const std::vector<SvcResult>& arm : runs) {
    for (const SvcResult& r : arm) {
      if (r.outcome == "FAILED") {
        std::fprintf(stderr, "SMOKE FAIL: %s arm ended FAILED\n",
                     r.arm.c_str());
        failures++;
      }
    }
  }
  for (const SvcResult& r : runs[1]) {
    if (r.target_end < 32 || r.target_end > 4096) {
      std::fprintf(stderr,
                   "SMOKE FAIL: adaptive target %llu outside clamps\n",
                   static_cast<unsigned long long>(r.target_end));
      failures++;
    }
  }
  if (!smoke && fixed.maint_victims > 0 &&
      adaptive.maint_victims > fixed.maint_victims) {
    std::fprintf(stderr,
                 "WARN: adaptive arm lost more deadlocks than fixed arm\n");
  }
  return failures;
}

void RunE3(JsonReport* report) {
  Banner("E3: bench_contention",
         "Updater/reader interference under five maintenance strategies "
         "(fixed offered load). The paper's long-transaction problem: "
         "atomic refresh inflates updater tails and lock waits.");

  TablePrinter table({"mode", "upd_txns", "p50_us", "p99_us", "max_ms",
                      "lockwait_ms", "deadlocks", "rd_p99_us", "avg_stale",
                      "queries"},
                     13);
  table.PrintHeader();
  for (const std::string mode :
       {"none", "full", "sync-eq1", "propagate", "rolling", "mvcc-snap"}) {
    RowResult r = RunMode(mode);
    uint64_t deadlocks =
        r.snapshot.CounterTotal("rollview_lock_deadlock_victims_total");
    table.PrintRow({r.mode, FmtInt(r.updater_txns), FmtInt(r.p50_us),
                    FmtInt(r.p99_us), Fmt(r.max_us / 1000.0, 1),
                    FmtInt(r.lock_wait_ms), FmtInt(deadlocks),
                    FmtInt(r.reader_p99_us), FmtInt(r.staleness),
                    FmtInt(r.maint_queries)});
    report->BeginRow();
    RegistryRowEmitter emit(report, &r.snapshot);
    emit.Str("mode", r.mode);
    emit.Int("updater_txns", r.updater_txns);
    emit.Int("p50_us", r.p50_us);
    emit.Int("p99_us", r.p99_us);
    emit.Int("max_us", r.max_us);
    emit.Int("lock_wait_ms", r.lock_wait_ms);
    emit.CounterTotal("deadlocks", "rollview_lock_deadlock_victims_total");
    emit.Int("reader_p99_us", r.reader_p99_us);
    emit.Int("avg_stale", r.staleness);
    emit.Int("queries", r.maint_queries);
  }
  std::printf(
      "\nShape: 'full'/'sync-eq1' hold S locks on all base tables per\n"
      "refresh -> updater max latency ~ refresh duration, lock waits pile\n"
      "up. Continuous propagate/rolling bound each transaction, keeping\n"
      "tails near the 'none' baseline while staleness stays low.\n"
      "'mvcc-snap' is the ablation the paper's engine could not run:\n"
      "Eq. 2 over time-travel snapshots takes no locks at all -- its\n"
      "lock-wait column is pure updater-vs-updater noise.\n\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      baseline_path = argv[i];
    }
  }

  JsonReport report("contention");
  if (!smoke) RunE3(&report);
  int failures = RunE12(smoke ? nullptr : &report, smoke);

  if (smoke && !baseline_path.empty() &&
      !BaselineMentionsArms(baseline_path)) {
    std::fprintf(stderr,
                 "SMOKE FAIL: baseline %s missing fixed-svc/adaptive-svc "
                 "rows\n",
                 baseline_path.c_str());
    failures++;
  }
  if (!smoke) report.Write();
  return failures == 0 ? 0 : 1;
}

}  // namespace bench
}  // namespace rollview

int main(int argc, char** argv) {
  return rollview::bench::Main(argc, argv);
}
