// rollview_inspect: drive a live maintenance harness and inspect it through
// the unified telemetry layer.
//
// Spins up the standard two-table join workload, a MaintenanceService with
// step tracing enabled, and paced updaters; scrapes the metrics registry
// mid-flight and at quiescence; then prints the operator report -- per-view
// staleness digest, every registered metric, and the span trees of the last
// N propagation steps.
//
// Build & run:  ./build/examples/rollview_inspect [options]
//
//   --traces N   how many recent step traces to print (default 8)
//   --prom       also print the raw Prometheus exposition text
//   --json       print machine formats instead (metrics JSON + trace JSON)
//   --millis M   how long to run the update storm (default 400)
//   --wal-dir D  back the WAL with a segmented on-disk log in (empty or
//                nonexistent) directory D: commits group-commit through the
//                fsync flusher, a durable checkpoint publishes at
//                quiescence, and the scrape gains the durability metrics
//                (rollview_wal_segments, rollview_wal_bytes{state},
//                group-commit batch/sync histograms, storage fault counters)
//   --watch      live dashboard mode: instead of the one-shot report,
//                redraw a per-view freshness frame (e2e percentiles, stage
//                breakdown, staleness, SLO burn, driver counters) every
//                --interval ms for the duration of the storm
//   --interval I watch refresh period in ms (default 100)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "capture/log_capture.h"
#include "harness/worker.h"
#include "ivm/checkpoint.h"
#include "ivm/maintenance.h"
#include "ivm/view_manager.h"
#include "obs/freshness.h"
#include "obs/inspect.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/wal_segment.h"
#include "workload/schemas.h"

using namespace rollview;

#define CHECK_OK(expr)                                            \
  do {                                                            \
    ::rollview::Status s_ = (expr);                               \
    if (!s_.ok()) {                                               \
      std::fprintf(stderr, "FATAL: %s\n", s_.ToString().c_str()); \
      return 1;                                                   \
    }                                                             \
  } while (false)

int main(int argc, char** argv) {
  size_t traces = 8;
  bool prom = false;
  bool json = false;
  bool watch = false;
  int run_millis = 400;
  int interval_millis = 100;
  std::string wal_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--traces") == 0 && i + 1 < argc) {
      traces = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      watch = true;
    } else if (std::strcmp(argv[i], "--millis") == 0 && i + 1 < argc) {
      run_millis = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_millis = std::atoi(argv[++i]);
      if (interval_millis < 1) interval_millis = 1;
    } else if (std::strcmp(argv[i], "--wal-dir") == 0 && i + 1 < argc) {
      wal_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: rollview_inspect [--traces N] [--prom] [--json] "
                   "[--watch] [--interval I] [--millis M] [--wal-dir D]\n");
      return 2;
    }
  }

  // 1. Engine + capture + the standard two-table join workload. With
  //    --wal-dir the log is file-backed from the first commit; a directory
  //    that already holds a log is refused (recover it instead).
  //    The registry every subsystem reports into is declared FIRST: the
  //    engine's recorders (the WAL flusher's group-commit histograms) hold
  //    raw pointers into it, so it must outlive the Db -- declaring it
  //    after would free those histograms while the flusher still runs.
  obs::MetricsRegistry registry;
  // The freshness tracker follows the same lifetime rule: the Db's commit
  // path and the WAL flusher stamp into it, so it must outlive the Db.
  obs::FreshnessTracker freshness;
  DbOptions dbopts;
  dbopts.wal_dir = wal_dir;
  Db db(dbopts);
  db.SetFreshnessTracker(&freshness);
  if (!wal_dir.empty()) {
    Status writable = db.wal()->CheckWritable();
    if (!writable.ok()) {
      std::fprintf(stderr,
                   "FATAL: cannot open WAL dir %s: %s\n(an existing log must "
                   "be recovered, not overwritten)\n",
                   wal_dir.c_str(), writable.ToString().c_str());
      return 1;
    }
  }
  LogCapture capture(&db);
  ViewManager views(&db, &capture);
  Result<TwoTableWorkload> wl = TwoTableWorkload::Create(
      &db, /*r_rows=*/4000, /*s_rows=*/1000, /*join_domain=*/128, /*seed=*/5);
  CHECK_OK(wl.status());
  TwoTableWorkload workload = std::move(wl).value();
  capture.CatchUp();
  Result<View*> vr = views.CreateView("V", workload.ViewDef());
  CHECK_OK(vr.status());
  View* view = vr.value();
  CHECK_OK(views.Materialize(view));
  capture.Start();

  // 2. A maintenance service with the step-trace journal enabled, wired
  //    into the registry (declared above the engine for lifetime).
  MaintenanceService::Options mopts;
  mopts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
  mopts.apply_continuously = true;
  mopts.trace_journal_capacity = 128;
  mopts.freshness = &freshness;
  // A 25ms commit-to-visibility SLO with a 10% error budget over a 1s
  // window: generous enough that the storm normally stays green, tight
  // enough that a stall shows up as burn (and, past 1.0, sheds).
  mopts.freshness_slo.target_staleness_nanos = 25ull * 1000 * 1000;
  MaintenanceService service(&views, view, mopts);
  service.RegisterMetrics(&registry);
  db.lock_manager()->RegisterMetrics(&registry, &registry);
  db.wal()->RegisterMetrics(&registry, &registry);
  // Durable backend: let the group-commit flusher emit kWalFlush root
  // traces into the service's journal -- the cross-thread causality link
  // from an fsynced batch's CSN range to the propagation steps that later
  // pick those commits up. Detached below before the service (which owns
  // the journal) is destroyed.
  if (db.wal()->durable() && service.trace_journal() != nullptr) {
    db.wal()->store()->AttachTraceJournal(service.trace_journal());
  }
  service.Start();

  // 3. Paced updaters supply a live delta stream while we scrape.
  std::vector<std::unique_ptr<UpdateStream>> streams;
  std::vector<std::unique_ptr<Worker>> updaters;
  for (int i = 0; i < 2; ++i) {
    streams.push_back(std::make_unique<UpdateStream>(
        &db,
        i == 0 ? workload.RStream(i + 1, 300 + i)
               : workload.SStream(i + 1, 300 + i),
        300 + i));
    UpdateStream* s = streams.back().get();
    Worker::Options opts;
    opts.name = "updater";
    opts.target_ops_per_sec = 500.0;
    updaters.push_back(
        std::make_unique<Worker>([s] { return s->RunTransaction(); }, opts));
  }
  for (auto& u : updaters) u->Start();

  // 4. A mid-flight scrape: this is what a monitoring agent would see
  //    while the storm is still running. In --watch mode the wait is spent
  //    redrawing the live dashboard instead of sleeping through it.
  obs::MetricsSnapshot live;
  if (watch) {
    const int frames = run_millis / interval_millis > 0
                           ? run_millis / interval_millis
                           : 1;
    for (int f = 0; f < frames; ++f) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_millis));
      live = registry.Snapshot();
      // ANSI clear + home, then the frame; a dumb pipe just sees frames
      // separated by the escape sequence.
      std::printf("\x1b[2J\x1b[H%s",
                  obs::RenderWatchFrame(live, static_cast<uint64_t>(f + 1))
                      .c_str());
      std::fflush(stdout);
    }
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(run_millis / 2));
    live = registry.Snapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(run_millis / 2));
  }
  for (auto& u : updaters) CHECK_OK(u->Join());
  CHECK_OK(service.Drain(db.stable_csn()));

  // 4b. Durable backend: publish a checkpoint at quiescence so segment
  //     retention advances and the checkpoint/prune counters register in
  //     the final scrape, exactly like a production maintenance cycle.
  if (db.wal()->durable()) {
    Result<DurableCheckpointReport> ckpt =
        PublishDurableCheckpoint(&db, &views);
    CHECK_OK(ckpt.status());
    WalSegmentStore::BytesByState bytes = db.wal()->store()->bytes_by_state();
    std::printf(
        "=== durable wal (%s) ===\ncheckpoint covers csn %llu (%llu image "
        "records); segments: %llu bytes active, %llu sealed, %llu "
        "retained\n\n",
        wal_dir.c_str(),
        static_cast<unsigned long long>(ckpt.value().covered_csn),
        static_cast<unsigned long long>(ckpt.value().image_records),
        static_cast<unsigned long long>(bytes.active),
        static_cast<unsigned long long>(bytes.sealed),
        static_cast<unsigned long long>(bytes.retained));
  }

  // 5. The quiescent scrape plus the retained step traces.
  obs::MetricsSnapshot final_snap = registry.Snapshot();
  const obs::TraceJournal* journal = service.trace_journal();

  if (json) {
    std::printf("%s\n", final_snap.ToJson().c_str());
    if (journal != nullptr) {
      std::printf("%s\n", journal->ToJson(traces).c_str());
    }
  } else if (watch) {
    // Close the dashboard with a quiescent frame; the storm frames already
    // scrolled by above.
    std::printf("\n=== quiescent ===\n%s",
                obs::RenderWatchFrame(final_snap, 0).c_str());
  } else {
    std::printf("=== mid-flight (storm still running) ===\n%s\n",
                obs::RenderViewDigest(live).c_str());
    std::printf("=== quiescent ===\n%s",
                obs::RenderInspectReport(final_snap, journal, traces).c_str());
    if (prom) {
      std::printf("\n=== prometheus exposition ===\n%s",
                  final_snap.ToPrometheusText().c_str());
    }
  }

  // The WAL flusher's journal pointer must not outlive the service that
  // owns the journal.
  if (db.wal()->durable()) {
    db.wal()->store()->AttachTraceJournal(nullptr);
  }
  CHECK_OK(service.Stop());
  capture.Stop();
  return 0;
}
