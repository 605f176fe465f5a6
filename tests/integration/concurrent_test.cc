// Full-system concurrency: updater threads, background capture, a rolling
// propagation thread, an apply thread, and MV readers all running against
// the same engine -- the deployment shape of the paper's prototype
// (Figure 11). Afterwards, quiesce and check the golden invariant.

#include <gtest/gtest.h>

#include <atomic>

#include "harness/mv_reader.h"
#include "harness/worker.h"
#include "ivm/apply.h"
#include "ivm/maintenance.h"
#include "ivm/rolling.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

TEST(ConcurrentTest, UpdatersPropagatorApplierReadersCoexist) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 80, 40, 8, 101));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  Csn t0 = view->propagate_from.load();

  env.StartCapture();

  // Updaters: two on R, one on S, each in its own key partition.
  std::vector<std::unique_ptr<UpdateStream>> streams;
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.RStream(1, 201), 201));
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.RStream(2, 202), 202));
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.SStream(3, 203), 203));
  std::vector<std::unique_ptr<Worker>> updaters;
  for (auto& stream : streams) {
    UpdateStream* s = stream.get();
    Worker::Options opts;
    opts.name = "updater";
    // Paced: unpaced updaters would generate history orders of magnitude
    // faster than a small-interval propagator can chase; the benchmarks
    // explore that regime deliberately, the test just needs coexistence.
    opts.target_ops_per_sec = 120.0;
    updaters.push_back(std::make_unique<Worker>(
        [s] { return s->RunTransaction(); }, opts));
  }

  // Rolling propagation, continuously chasing capture with adaptive
  // (target-rows) intervals so it keeps up regardless of update rate.
  std::vector<std::unique_ptr<IntervalPolicy>> policies;
  policies.push_back(std::make_unique<TargetRowsInterval>(64));
  policies.push_back(std::make_unique<TargetRowsInterval>(64));
  RollingPropagator prop(env.views(), view, std::move(policies));
  Worker propagate_worker(
      [&prop]() -> Status {
        Result<bool> r = prop.Step();
        if (!r.ok()) return r.status();
        if (!r.value()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return Status::OK();
      },
      Worker::Options{.name = "propagate"});

  // Apply chasing the high-water mark.
  Applier applier(env.views(), view);
  Worker apply_worker(
      [&]() -> Status {
        Csn hwm = view->high_water_mark();
        if (hwm > view->mv->csn()) {
          return applier.RollTo(hwm);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        return Status::OK();
      },
      Worker::Options{.name = "apply"});

  // Readers hammer the MV.
  MvReader reader(env.views(), view);
  Worker read_worker([&reader] { return reader.ReadOnce(); },
                     Worker::Options{.name = "reader"});

  for (auto& u : updaters) u->Start();
  propagate_worker.Start();
  apply_worker.Start();
  read_worker.Start();

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));

  // Stop updates first; let the pipeline drain.
  for (auto& u : updaters) ASSERT_OK(u->Join());
  ASSERT_OK(env.capture()->WaitForCsn(env.db()->stable_csn()));
  Csn target = env.capture()->high_water_mark();
  ASSERT_OK(propagate_worker.Join());
  ASSERT_OK(prop.RunUntil(target));
  ASSERT_OK(apply_worker.Join());
  ASSERT_OK(read_worker.Join());
  ASSERT_OK(applier.RollTo(view->high_water_mark()));

  // Every thread did real work.
  uint64_t total_txns = 0;
  for (auto& s : streams) total_txns += s->stats().txns;
  EXPECT_GT(total_txns, 50u);
  EXPECT_GT(reader.reads(), 10u);
  EXPECT_GT(prop.runner()->stats().queries, 0u);

  // Golden invariant on the full history, plus MV-vs-oracle.
  DeltaRows oracle = OracleViewState(env.db(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()));
  Csn hwm = view->high_water_mark();
  EXPECT_GE(hwm, target);
  EXPECT_TRUE(CheckTimedDeltaWindow(env.db(), view, t0, hwm));
  Csn mid = t0 + (hwm - t0) / 2;
  EXPECT_TRUE(CheckTimedDeltaWindow(env.db(), view, t0, mid));
  EXPECT_TRUE(CheckTimedDeltaWindow(env.db(), view, mid, hwm));
}

TEST(ConcurrentTest, PropagationRetriesThroughDeadlocks) {
  // Tight lock timeouts + contended tables force deadlock-victim aborts;
  // the runner's retry loop must still converge to a correct delta.
  DbOptions db_options;
  db_options.lock_options.wait_timeout = std::chrono::milliseconds(500);
  Db db(db_options);
  LogCapture capture(&db);
  ViewManager views(&db, &capture);

  auto created = TwoTableWorkload::Create(&db, 60, 30, 4, 55);
  ASSERT_TRUE(created.ok());
  TwoTableWorkload workload = created.value();
  capture.CatchUp();
  auto vr = views.CreateView("V", workload.ViewDef());
  ASSERT_TRUE(vr.ok());
  View* view = vr.value();
  ASSERT_OK(views.Materialize(view));
  Csn t0 = view->propagate_from.load();

  capture.Start();
  UpdateStream r1(&db, workload.RStream(1, 301), 301);
  UpdateStream r2(&db, workload.RStream(2, 302), 302);
  UpdateStream s1(&db, workload.SStream(3, 303), 303);
  Worker::Options paced;
  paced.target_ops_per_sec = 150.0;
  Worker w1([&r1] { return r1.RunTransaction(); }, paced);
  Worker w2([&r2] { return r2.RunTransaction(); }, paced);
  Worker w3([&s1] { return s1.RunTransaction(); }, paced);

  std::vector<std::unique_ptr<IntervalPolicy>> dl_policies;
  dl_policies.push_back(std::make_unique<TargetRowsInterval>(32));
  dl_policies.push_back(std::make_unique<TargetRowsInterval>(32));
  RollingPropagator prop(&views, view, std::move(dl_policies));
  Worker pw([&prop]() -> Status {
    Result<bool> r = prop.Step();
    if (!r.ok()) return r.status();
    if (!r.value()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  });

  w1.Start();
  w2.Start();
  w3.Start();
  pw.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  ASSERT_OK(w1.Join());
  ASSERT_OK(w2.Join());
  ASSERT_OK(w3.Join());
  ASSERT_OK(pw.Join());
  ASSERT_OK(capture.WaitForCsn(db.stable_csn()));
  Csn target = capture.high_water_mark();
  ASSERT_OK(prop.RunUntil(target));
  capture.Stop();

  EXPECT_TRUE(CheckTimedDeltaWindow(&db, view, t0,
                                    view->high_water_mark()));
}

TEST(ConcurrentTest, GarbageCollectionDuringPropagation) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 40, 20, 4, 77));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  Csn t0 = view->propagate_from.load();

  UpdateStream r1(env.db(), workload.RStream(1, 401), 401);
  RollingPropagator prop(env.views(), view, /*uniform_interval=*/3);
  Applier applier(env.views(), view);

  for (int round = 0; round < 8; ++round) {
    ASSERT_OK(r1.RunTransactions(3));
    env.CatchUpCapture();
    ASSERT_OK(prop.RunUntil(env.capture()->high_water_mark()));
    ASSERT_OK(applier.RollTo(view->high_water_mark()));
    // GC below the MV time: propagation and apply never look back there.
    env.db()->GarbageCollect(view->mv->csn());
  }
  DeltaRows oracle = OracleViewState(env.db(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()));
  (void)t0;
}

// Version GC (RetentionService with gc_versions) compacts the base tables'
// version heaps while writers hold pending versions and the maintenance
// service propagates and applies. The MV must still equal the oracle at its
// CSN, and once the writers stop, one pass leaves no version that died at
// or below its floor.
TEST(ConcurrentTest, VersionGcDuringLiveMaintenance) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 60, 30, 6, 131));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  env.StartCapture();

  MaintenanceService service(env.views(), view);
  RetentionOptions ropts;
  ropts.gc_versions = true;
  RetentionService retention(env.views(), ropts,
                             std::chrono::milliseconds(1));
  service.Start();
  retention.Start();

  UpdateStream r1(env.db(), workload.RStream(1, 601), 601);
  UpdateStream r2(env.db(), workload.RStream(2, 602), 602);
  UpdateStream s1(env.db(), workload.SStream(3, 603), 603);
  Worker::Options paced;
  paced.target_ops_per_sec = 400.0;
  Worker w1([&r1] { return r1.RunTransaction(); }, paced);
  Worker w2([&r2] { return r2.RunTransaction(); }, paced);
  Worker w3([&s1] { return s1.RunTransaction(); }, paced);
  w1.Start();
  w2.Start();
  w3.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_OK(w1.Join());
  ASSERT_OK(w2.Join());
  ASSERT_OK(w3.Join());
  ASSERT_OK(service.Drain(env.db()->stable_csn()));
  retention.Stop();
  ASSERT_OK(service.Stop());
  EXPECT_GT(retention.passes(), 0u);

  const Csn floor = view->mv->csn();
  DeltaRows oracle = OracleViewState(env.db(), view, floor);
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()));
  retention.RunOnce();
  for (TableId t : {workload.r, workload.s}) {
    env.db()->table(t)->VisitVersions([&](const Tuple&, Csn, Csn end) {
      EXPECT_GT(end, floor);
    });
  }
}

}  // namespace
}  // namespace rollview
